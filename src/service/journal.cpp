#include "service/journal.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include "util/strings.h"
#include "workload/trace_io.h"

namespace coda::service {

namespace {

constexpr const char* kMagic = "CODA_JOURNAL";
constexpr const char* kVersionV1 = "v1";
constexpr const char* kVersionV2 = "v2";

// Every ExperimentConfig field outside the nine legacy header keys, as
// `config.<name>` lines. This X-macro is the single source of truth for
// the v2 config block: the writer and the parser both expand it, so the
// two can never enumerate different field sets. When a config struct
// grows a field, add it here AND to experiment_cache_key in
// sim/report_cache.cpp — tests/config_coverage_test.cpp's sizeof
// tripwires fail the build until both are updated.
//
// X(key, member) where `member` is a path inside sim::ExperimentConfig;
// the member's type picks the wire encoding (hexfloat double, int,
// 0/1 bool, u64, or the allocator SearchMode enum integer).
#define CODA_JOURNAL_V2_FIELDS(X)                                            \
  X("config.cluster.node.cores", engine.cluster.node.cores)                  \
  X("config.cluster.node.gpus", engine.cluster.node.gpus)                    \
  X("config.cluster.node.mem_bw_gbps", engine.cluster.node.mem_bw_gbps)     \
  X("config.cluster.node.pcie_gbps", engine.cluster.node.pcie_gbps)         \
  X("config.cluster.node.llc_mb", engine.cluster.node.llc_mb)               \
  X("config.cluster.node.mba_capable", engine.cluster.node.mba_capable)     \
  X("config.cluster.mba_fraction", engine.cluster.mba_fraction)             \
  X("config.cluster.cpu_only_nodes", engine.cluster.cpu_only_node_count)    \
  X("config.cluster.cpu_only_node.cores", engine.cluster.cpu_only_node.cores) \
  X("config.cluster.cpu_only_node.gpus", engine.cluster.cpu_only_node.gpus) \
  X("config.cluster.cpu_only_node.mem_bw_gbps",                             \
    engine.cluster.cpu_only_node.mem_bw_gbps)                               \
  X("config.cluster.cpu_only_node.pcie_gbps",                               \
    engine.cluster.cpu_only_node.pcie_gbps)                                 \
  X("config.cluster.cpu_only_node.llc_mb",                                  \
    engine.cluster.cpu_only_node.llc_mb)                                    \
  X("config.cluster.cpu_only_node.mba_capable",                             \
    engine.cluster.cpu_only_node.mba_capable)                               \
  X("config.engine.record_events", engine.record_events)                    \
  X("config.engine.incremental_recompute", engine.incremental_recompute)    \
  X("config.retry.enabled", retry.enabled)                                  \
  X("config.retry.backoff_base_s", retry.backoff_base_s)                    \
  X("config.retry.backoff_max_s", retry.backoff_max_s)                      \
  X("config.retry.max_retries", retry.max_retries)                          \
  X("config.failures.node_mtbf_s", failures.node_mtbf_s)                    \
  X("config.failures.outage_s", failures.outage_s)                          \
  X("config.failures.seed", failures.seed)                                  \
  X("config.coda.allocator.search_mode", coda.allocator.search_mode)        \
  X("config.coda.allocator.profile_step_s", coda.allocator.profile_step_s)  \
  X("config.coda.allocator.max_profile_steps",                              \
    coda.allocator.max_profile_steps)                                       \
  X("config.coda.allocator.improvement_eps",                                \
    coda.allocator.improvement_eps)                                         \
  X("config.coda.allocator.plateau_util", coda.allocator.plateau_util)      \
  X("config.coda.allocator.min_cores", coda.allocator.min_cores)            \
  X("config.coda.allocator.max_cores", coda.allocator.max_cores)            \
  X("config.coda.eliminator.enabled", coda.eliminator.enabled)              \
  X("config.coda.eliminator.check_period_s", coda.eliminator.check_period_s) \
  X("config.coda.eliminator.bw_threshold", coda.eliminator.bw_threshold)    \
  X("config.coda.eliminator.util_drop_tolerance",                           \
    coda.eliminator.util_drop_tolerance)                                    \
  X("config.coda.eliminator.mba_throttle_factor",                           \
    coda.eliminator.mba_throttle_factor)                                    \
  X("config.coda.eliminator.release_when_calm",                             \
    coda.eliminator.release_when_calm)                                      \
  X("config.coda.eliminator.release_threshold",                             \
    coda.eliminator.release_threshold)                                      \
  X("config.coda.reserved_cores_per_node", coda.reserved_cores_per_node)    \
  X("config.coda.four_gpu_node_fraction", coda.four_gpu_node_fraction)      \
  X("config.coda.reservation_update_period_s",                              \
    coda.reservation_update_period_s)                                       \
  X("config.coda.multi_array_enabled", coda.multi_array_enabled)            \
  X("config.coda.cpu_preemption_enabled", coda.cpu_preemption_enabled)      \
  X("config.coda.static_bw_cap_gbps", coda.static_bw_cap_gbps)

constexpr size_t kV2FieldCount = 0
#define CODA_COUNT_FIELD(key, member) +1
    CODA_JOURNAL_V2_FIELDS(CODA_COUNT_FIELD)
#undef CODA_COUNT_FIELD
    ;

util::Error io_error(const std::string& path, const char* what) {
  return util::Error{util::ErrorCode::kIoError,
                     util::strfmt("journal '%s': %s (%s)", path.c_str(), what,
                                  std::strerror(errno))};
}

util::Error parse_error(const std::string& what) {
  return util::Error{util::ErrorCode::kParseError, "journal: " + what};
}

// Splits one line into "key" and "rest" on the first space.
void split_key(const std::string& line, std::string* key, std::string* rest) {
  const size_t sp = line.find(' ');
  if (sp == std::string::npos) {
    *key = line;
    rest->clear();
  } else {
    *key = line.substr(0, sp);
    *rest = line.substr(sp + 1);
  }
}

util::Result<double> parse_hexfloat(const std::string& s) {
  if (s.empty()) {
    return parse_error("empty number");
  }
  // Same endptr/ERANGE discipline as workload/trace_io: errno must be
  // cleared first (strtod only sets it), and an out-of-range value is an
  // error — "1e999" parsing as HUGE_VAL would silently replay a different
  // session instead of failing loudly.
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) {
    return parse_error("'" + s + "' is not a number");
  }
  if (errno == ERANGE) {
    return parse_error("'" + s + "' is out of range");
  }
  return v;
}

util::Result<long long> parse_ll(const std::string& s) {
  if (s.empty()) {
    return parse_error("empty integer");
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno == ERANGE) {
    return parse_error("'" + s + "' is not an integer");
  }
  return v;
}

// Full-u64-range parser: noise_seed and job ids are written with %llu, so
// values >= 2^63 must round-trip (strtoll would reject them with ERANGE).
util::Result<unsigned long long> parse_ull(const std::string& s) {
  // strtoull silently wraps negative input, so reject it up front.
  if (s.empty() || s[0] == '-') {
    return parse_error("'" + s + "' is not an unsigned integer");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno == ERANGE) {
    return parse_error("'" + s + "' is not an unsigned integer");
  }
  return v;
}

util::Result<sim::Policy> policy_from_string(const std::string& name) {
  for (sim::Policy p :
       {sim::Policy::kFifo, sim::Policy::kDrf, sim::Policy::kCoda}) {
    if (name == sim::to_string(p)) {
      return p;
    }
  }
  return parse_error("unknown policy '" + name + "'");
}

// ---- config.* wire encoding, one overload pair per member type ----

void append_value(std::string* out, double v) {
  util::append_hexfloat(out, v);
}
void append_value(std::string* out, int v) { util::append_decimal(out, v); }
void append_value(std::string* out, bool v) { out->push_back(v ? '1' : '0'); }
void append_value(std::string* out, uint64_t v) {
  util::append_decimal(out, v);
}
void append_value(std::string* out, core::SearchMode v) {
  append_value(out, static_cast<int>(v));
}

util::Status assign_value(const std::string& key, const std::string& s,
                          double* out) {
  auto v = parse_hexfloat(s);
  if (!v.ok()) {
    return parse_error("bad value for '" + key + "': " +
                       v.error().message);
  }
  *out = *v;
  return util::Status::Ok();
}

util::Status assign_value(const std::string& key, const std::string& s,
                          int* out) {
  auto v = parse_ll(s);
  if (!v.ok() || *v < std::numeric_limits<int>::min() ||
      *v > std::numeric_limits<int>::max()) {
    return parse_error("bad value for '" + key + "': '" + s +
                       "' is not an int");
  }
  *out = static_cast<int>(*v);
  return util::Status::Ok();
}

util::Status assign_value(const std::string& key, const std::string& s,
                          bool* out) {
  if (s == "0") {
    *out = false;
  } else if (s == "1") {
    *out = true;
  } else {
    return parse_error("bad value for '" + key + "': '" + s +
                       "' is not 0 or 1");
  }
  return util::Status::Ok();
}

util::Status assign_value(const std::string& key, const std::string& s,
                          uint64_t* out) {
  auto v = parse_ull(s);
  if (!v.ok()) {
    return parse_error("bad value for '" + key + "': " +
                       v.error().message);
  }
  *out = static_cast<uint64_t>(*v);
  return util::Status::Ok();
}

util::Status assign_value(const std::string& key, const std::string& s,
                          core::SearchMode* out) {
  int raw = 0;
  if (auto status = assign_value(key, s, &raw); !status.ok()) {
    return status;
  }
  if (raw < static_cast<int>(core::SearchMode::kHillClimb) ||
      raw > static_cast<int>(core::SearchMode::kOneShot)) {
    return parse_error("bad value for '" + key + "': search mode " + s +
                       " out of range");
  }
  *out = static_cast<core::SearchMode>(raw);
  return util::Status::Ok();
}

// Dispatches one `config.<name> <value>` line into the ExperimentConfig.
// `seen` records which listed fields the header provided so the caller can
// reject a v2 header that omits any (or repeats one).
util::Status parse_config_field(const std::string& key,
                                const std::string& rest,
                                sim::ExperimentConfig* cfg,
                                std::set<std::string>* seen) {
#define CODA_PARSE_FIELD(wire_key, member)                   \
  if (key == wire_key) {                                     \
    if (!seen->insert(key).second) {                         \
      return parse_error("duplicate config key '" + key + "'"); \
    }                                                        \
    return assign_value(key, rest, &cfg->member);            \
  }
  CODA_JOURNAL_V2_FIELDS(CODA_PARSE_FIELD)
#undef CODA_PARSE_FIELD
  return parse_error("unknown config key '" + key + "'");
}

// The first listed field `seen` is missing, for the error message.
std::string first_missing_config_field(const std::set<std::string>& seen) {
#define CODA_CHECK_FIELD(wire_key, member)   \
  if (seen.count(wire_key) == 0) {           \
    return wire_key;                         \
  }
  CODA_JOURNAL_V2_FIELDS(CODA_CHECK_FIELD)
#undef CODA_CHECK_FIELD
  return std::string();
}

}  // namespace

JournalWriter::~JournalWriter() { close(); }

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : file_(other.file_), fsync_(other.fsync_) {
  other.file_ = nullptr;
}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this != &other) {
    close();
    file_ = other.file_;
    fsync_ = other.fsync_;
    other.file_ = nullptr;
  }
  return *this;
}

void JournalWriter::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

std::string serialize_session_header(const SessionSpec& session) {
  const auto& eng = session.config.engine;
  std::string header;
  header += util::strfmt("%s %s\n", kMagic, kVersionV2);
  header += util::strfmt("policy %s\n", sim::to_string(session.policy));
  const auto field = [&header](const char* key, auto value) {
    header += key;
    header += ' ';
    append_value(&header, value);
    header += '\n';
  };
  field("nodes", eng.cluster.node_count);
  field("metrics_period", eng.metrics_period_s);
  field("frag_min_cpus", eng.frag_min_cpus);
  field("noise_stddev", eng.util_noise_stddev);
  field("noise_seed", eng.noise_seed);
  field("horizon", session.config.horizon_s);
  field("drain_slack", session.config.drain_slack_s);
  field("speedup", session.speedup);
#define CODA_WRITE_FIELD(wire_key, member) \
  field(wire_key, session.config.member);
  CODA_JOURNAL_V2_FIELDS(CODA_WRITE_FIELD)
#undef CODA_WRITE_FIELD
  field("base_trace_bytes", uint64_t{session.base_trace_csv.size()});
  header += session.base_trace_csv;
  return header;
}

util::Result<JournalWriter> JournalWriter::open(const std::string& path,
                                                const SessionSpec& session) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return io_error(path, "cannot open for write");
  }
  const std::string header = serialize_session_header(session);
  if (std::fwrite(header.data(), 1, header.size(), f) != header.size() ||
      std::fflush(f) != 0) {
    std::fclose(f);
    return io_error(path, "header write failed");
  }
  JournalWriter writer;
  writer.file_ = f;
  return writer;
}

util::Result<JournalWriter> JournalWriter::open_append(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return io_error(path, "cannot open for append");
  }
  JournalWriter writer;
  writer.file_ = f;
  return writer;
}

std::string format_submit_entry(double virtual_time, uint64_t job_id,
                                const std::string& csv_row) {
  std::string line = "S ";
  util::append_hexfloat(&line, virtual_time);
  line += ' ';
  util::append_decimal(&line, job_id);
  line += ' ';
  line += csv_row;
  line += '\n';
  return line;
}

util::Status JournalWriter::append_submit(double virtual_time,
                                          uint64_t job_id,
                                          const std::string& csv_row) {
  if (file_ == nullptr) {
    return util::Error{util::ErrorCode::kFailedPrecondition,
                       "journal is closed"};
  }
  const std::string line = format_submit_entry(virtual_time, job_id, csv_row);
  // Group commit: no fflush here — flush() covers the whole batch. A short
  // fwrite still poisons the journal so a later append cannot concatenate
  // onto a torn line and produce a file that parses to the wrong session.
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    close();
    return util::Error{util::ErrorCode::kIoError, "journal append failed"};
  }
  return util::Status::Ok();
}

util::Status JournalWriter::flush() {
  if (file_ == nullptr) {
    return util::Error{util::ErrorCode::kFailedPrecondition,
                       "journal is closed"};
  }
  if (std::fflush(file_) != 0) {
    // Entries since the last good flush may be torn on disk; poison the
    // writer so the server stops acknowledging submissions.
    close();
    return util::Error{util::ErrorCode::kIoError, "journal flush failed"};
  }
  if (fsync_ && fsync(fileno(file_)) != 0) {
    close();
    return util::Error{util::ErrorCode::kIoError, "journal fsync failed"};
  }
  return util::Status::Ok();
}

void JournalWriter::note(const std::string& comment) {
  if (file_ == nullptr) {
    return;
  }
  std::string line = "# " + comment + "\n";
  (void)std::fwrite(line.data(), 1, line.size(), file_);
  (void)std::fflush(file_);
}

util::Result<JournalSession> parse_journal(const std::string& text) {
  JournalSession out;
  size_t pos = 0;
  auto next_line = [&]() -> util::Result<std::string> {
    if (pos >= text.size()) {
      return parse_error("unexpected end of file");
    }
    const size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      return parse_error("unterminated line");
    }
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    return line;
  };

  // ---- magic ----
  auto magic = next_line();
  if (!magic.ok()) {
    return magic.error();
  }
  bool is_v2 = false;
  if (*magic == std::string(kMagic) + " " + kVersionV2) {
    is_v2 = true;
  } else if (*magic != std::string(kMagic) + " " + kVersionV1) {
    return parse_error("bad magic/version line '" + *magic + "'");
  }

  // ---- header key/value lines, terminated by base_trace_bytes ----
  auto& cfg = out.session.config;
  bool saw_horizon = false;
  std::set<std::string> seen_config;
  while (true) {
    auto line = next_line();
    if (!line.ok()) {
      return line.error();
    }
    std::string key;
    std::string rest;
    split_key(*line, &key, &rest);
    if (key == "policy") {
      auto p = policy_from_string(rest);
      if (!p.ok()) {
        return p.error();
      }
      out.session.policy = *p;
    } else if (key == "nodes") {
      auto v = parse_ll(rest);
      if (!v.ok()) {
        return v.error();
      }
      cfg.engine.cluster.node_count = static_cast<int>(*v);
    } else if (key == "metrics_period") {
      auto v = parse_hexfloat(rest);
      if (!v.ok()) {
        return v.error();
      }
      cfg.engine.metrics_period_s = *v;
    } else if (key == "frag_min_cpus") {
      auto v = parse_ll(rest);
      if (!v.ok()) {
        return v.error();
      }
      cfg.engine.frag_min_cpus = static_cast<int>(*v);
    } else if (key == "noise_stddev") {
      auto v = parse_hexfloat(rest);
      if (!v.ok()) {
        return v.error();
      }
      cfg.engine.util_noise_stddev = *v;
    } else if (key == "noise_seed") {
      auto v = parse_ull(rest);
      if (!v.ok()) {
        return v.error();
      }
      cfg.engine.noise_seed = static_cast<uint64_t>(*v);
    } else if (key == "horizon") {
      auto v = parse_hexfloat(rest);
      if (!v.ok()) {
        return v.error();
      }
      cfg.horizon_s = *v;
      saw_horizon = true;
    } else if (key == "drain_slack") {
      auto v = parse_hexfloat(rest);
      if (!v.ok()) {
        return v.error();
      }
      cfg.drain_slack_s = *v;
    } else if (key == "speedup") {
      auto v = parse_hexfloat(rest);
      if (!v.ok()) {
        return v.error();
      }
      out.session.speedup = *v;
    } else if (is_v2 && key.compare(0, 7, "config.") == 0) {
      if (auto status = parse_config_field(key, rest, &cfg, &seen_config);
          !status.ok()) {
        return status.error();
      }
    } else if (key == "base_trace_bytes") {
      // A v2 header must provide every listed config field: a journal from
      // a *newer* writer would fail above on its unknown key, and one with
      // fields stripped (truncation, hand edits) must not silently replay
      // under defaults.
      if (is_v2 && seen_config.size() != kV2FieldCount) {
        return parse_error(util::strfmt(
            "v2 header has %zu of %zu config fields (first missing: %s)",
            seen_config.size(), kV2FieldCount,
            first_missing_config_field(seen_config).c_str()));
      }
      auto v = parse_ll(rest);
      if (!v.ok()) {
        return v.error();
      }
      const size_t n = static_cast<size_t>(*v);
      if (pos + n > text.size()) {
        return parse_error("truncated base trace");
      }
      out.session.base_trace_csv = text.substr(pos, n);
      pos += n;
      break;  // entries follow
    } else {
      return parse_error("unknown header key '" + key + "'");
    }
  }
  if (!saw_horizon || cfg.horizon_s <= 0.0) {
    return parse_error("missing or non-positive horizon");
  }

  // ---- entries ----
  while (pos < text.size()) {
    auto line = next_line();
    if (!line.ok()) {
      return line.error();
    }
    if (line->empty() || (*line)[0] == '#') {
      continue;
    }
    std::string tag;
    std::string rest;
    split_key(*line, &tag, &rest);
    if (tag != "S") {
      return parse_error("unknown entry tag '" + tag + "'");
    }
    std::string vt_str;
    std::string after_vt;
    split_key(rest, &vt_str, &after_vt);
    std::string id_str;
    std::string row;
    split_key(after_vt, &id_str, &row);
    auto vt = parse_hexfloat(vt_str);
    if (!vt.ok()) {
      return vt.error();
    }
    auto id = parse_ull(id_str);
    if (!id.ok()) {
      return id.error();
    }
    if (row.empty()) {
      return parse_error("malformed submission entry");
    }
    out.submissions.push_back(
        {*vt, static_cast<uint64_t>(*id), std::move(row)});
  }
  return out;
}

util::Result<JournalSession> load_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::Error{util::ErrorCode::kIoError,
                       "cannot open journal '" + path + "'"};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_journal(buf.str());
}

util::Result<std::vector<workload::JobSpec>> journal_trace(
    const JournalSession& journal) {
  std::vector<workload::JobSpec> trace;
  if (!journal.session.base_trace_csv.empty()) {
    auto base = workload::trace_from_csv(journal.session.base_trace_csv);
    if (!base.ok()) {
      return base.error();
    }
    trace = std::move(base).value();
  }
  trace.reserve(trace.size() + journal.submissions.size());
  for (const auto& entry : journal.submissions) {
    auto spec = workload::job_from_csv_row(entry.csv_row);
    if (!spec.ok()) {
      return spec.error();
    }
    spec->id = entry.job_id;
    spec->submit_time = entry.virtual_time;
    trace.push_back(std::move(*spec));
  }
  return trace;
}

util::Result<sim::ExperimentReport> replay_journal(
    const JournalSession& journal) {
  auto trace = journal_trace(journal);
  if (!trace.ok()) {
    return trace.error();
  }
  return sim::run_experiment(journal.session.policy, *trace,
                             journal.session.config);
}

util::Result<sim::ExperimentReport> replay_journal_file(
    const std::string& path) {
  auto journal = load_journal(path);
  if (!journal.ok()) {
    return journal.error();
  }
  return replay_journal(*journal);
}

}  // namespace coda::service
