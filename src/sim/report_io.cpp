#include "sim/report_io.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>

#include "util/assert.h"
#include "util/csv.h"
#include "util/strings.h"

namespace coda::sim {

util::Status save_report_csv(const ExperimentReport& report,
                             const std::string& directory,
                             const std::string& prefix) {
  const std::string base = directory + "/" + prefix;

  // ---- summary ----
  util::CsvDocument summary;
  summary.header = {"scheduler",       "submitted",
                    "completed",       "horizon_s",
                    "gpu_active_rate", "gpu_util_active",
                    "gpu_util_overall", "cpu_active_rate",
                    "cpu_util_active", "frag_rate",
                    "frag_case2_rate", "gpu_active_when_queued",
                    "preemptions",     "migrations",
                    "mba_throttles",   "core_halvings",
                    "abandoned",       "node_failures",
                    "evictions",       "restarts",
                    "gpu_goodput",     "cpu_goodput"};
  summary.rows.push_back({
      report.scheduler,
      util::strfmt("%zu", report.submitted),
      util::strfmt("%zu", report.completed),
      util::strfmt("%.1f", report.horizon_s),
      util::strfmt("%.4f", report.gpu_active_rate),
      util::strfmt("%.4f", report.gpu_util_active),
      util::strfmt("%.4f", report.gpu_util_overall),
      util::strfmt("%.4f", report.cpu_active_rate),
      util::strfmt("%.4f", report.cpu_util_active),
      util::strfmt("%.4f", report.frag_rate),
      util::strfmt("%.4f", report.frag_case2_rate),
      util::strfmt("%.4f", report.gpu_active_when_queued),
      util::strfmt("%d", report.preemptions),
      util::strfmt("%d", report.migrations),
      util::strfmt("%d", report.eliminator_stats.mba_throttles),
      util::strfmt("%d", report.eliminator_stats.core_halvings),
      util::strfmt("%zu", report.abandoned),
      util::strfmt("%d", report.node_failures),
      util::strfmt("%d", report.evictions),
      util::strfmt("%d", report.restarts),
      util::strfmt("%.4f", report.gpu_goodput),
      util::strfmt("%.4f", report.cpu_goodput),
  });
  if (auto status = util::write_csv_file(base + "_summary.csv", summary);
      !status.ok()) {
    return status;
  }

  // ---- time series (all sampled on the same metric ticks) ----
  util::CsvDocument series;
  series.header = {"t", "gpu_active", "gpu_util", "cpu_active", "cpu_util"};
  const size_t n = report.gpu_active_series.size();
  for (size_t i = 0; i < n; ++i) {
    series.rows.push_back({
        util::strfmt("%.1f", report.gpu_active_series.at(i).t),
        util::strfmt("%.4f", report.gpu_active_series.at(i).value),
        util::strfmt("%.4f", report.gpu_util_series.at(i).value),
        util::strfmt("%.4f", report.cpu_active_series.at(i).value),
        util::strfmt("%.4f", report.cpu_util_series.at(i).value),
    });
  }
  if (auto status = util::write_csv_file(base + "_series.csv", series);
      !status.ok()) {
    return status;
  }

  // ---- per-job outcomes ----
  util::CsvDocument jobs;
  jobs.header = {"job",        "kind",       "tenant",     "submit_s",
                 "queue_s",    "processing_s", "latency_s", "preempts",
                 "final_cpus", "completed",  "evictions",  "restarts",
                 "abandoned",  "wasted_core_s", "wasted_gpu_s"};
  for (const auto& record : report.records) {
    const double processing =
        record.completed ? record.finish_time - record.first_start_time
                         : -1.0;
    jobs.rows.push_back({
        util::strfmt("%llu",
                     static_cast<unsigned long long>(record.spec.id)),
        workload::to_string(record.spec.kind),
        util::strfmt("%u", record.spec.tenant),
        util::strfmt("%.1f", record.submit_time),
        util::strfmt("%.1f", record.queue_time_total),
        util::strfmt("%.1f", processing),
        util::strfmt("%.1f", record.end_to_end_latency()),
        util::strfmt("%d", record.preempt_count),
        util::strfmt("%d", record.final_cpus),
        record.completed ? "1" : "0",
        util::strfmt("%d", record.evict_count),
        util::strfmt("%d", record.restart_count),
        record.abandoned ? "1" : "0",
        util::strfmt("%.1f", record.wasted_core_s),
        util::strfmt("%.1f", record.wasted_gpu_s),
    });
  }
  return util::write_csv_file(base + "_jobs.csv", jobs);
}

// ---------------------------------------------------- full-report text form

namespace {

constexpr const char* kMagic = "CODA_REPORT";

// Append-only text builder over util's printf-exact number writer: no
// format-string parsing and no temporary std::string per token (a month
// report serializes ~5M tokens).
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void word(const char* s) { sep(); out_->append(s); }
  void str(const std::string& s) { sep(); out_->append(s); }
  void u64(uint64_t v) { sep(); util::append_decimal(out_, v); }
  void i(int v) { sep(); util::append_decimal(out_, v); }
  void zu(size_t v) { sep(); util::append_decimal(out_, v); }
  // Hexfloat: exact binary round trip through strtod.
  void d(double v) { sep(); util::append_hexfloat(out_, v); }
  void nl() {
    out_->push_back('\n');
    line_start_ = true;
  }

 private:
  void sep() {
    if (!line_start_) {
      out_->push_back(' ');
    }
    line_start_ = false;
  }

  std::string* out_;
  bool line_start_ = true;
};

// Token cursor over the serialized blob. Reads are whitespace-delimited;
// every helper sets failed_ instead of aborting so corrupt cache files
// surface as a clean parse error.
class Cursor {
 public:
  explicit Cursor(const std::string& text)
      : p_(text.c_str()), end_(text.c_str() + text.size()) {}

  bool failed() const { return failed_; }

  std::string word() {
    skip_ws();
    const char* start = p_;
    while (p_ < end_ && !std::isspace(static_cast<unsigned char>(*p_))) {
      ++p_;
    }
    if (p_ == start) {
      failed_ = true;
      return {};
    }
    return std::string(start, p_);
  }

  bool expect(const char* w) {
    if (word() != w) {
      failed_ = true;
    }
    return !failed_;
  }

  double d() {
    skip_ws();
    char* next = nullptr;
    const double v = std::strtod(p_, &next);
    if (next == p_) {
      failed_ = true;
      return 0.0;
    }
    p_ = next;
    return v;
  }

  // Out-of-range integers (ERANGE) are corrupt input, not clamped values.
  long long ll() {
    skip_ws();
    char* next = nullptr;
    errno = 0;
    const long long v = std::strtoll(p_, &next, 10);
    if (next == p_ || errno == ERANGE) {
      failed_ = true;
      return 0;
    }
    p_ = next;
    return v;
  }

  // Full unsigned range (strtoll would clamp ids >= 2^63 to LLONG_MAX);
  // a sign is corrupt input, so a negative count cannot wrap to a huge one.
  uint64_t u64() {
    skip_ws();
    char* next = nullptr;
    errno = 0;
    const unsigned long long v =
        p_ < end_ && *p_ == '-' ? 0 : std::strtoull(p_, &next, 10);
    if (next == nullptr || next == p_ || errno == ERANGE) {
      failed_ = true;
      return 0;
    }
    p_ = next;
    return v;
  }
  int i() { return i_in(INT_MIN, INT_MAX); }
  // An integer in [lo, hi]; anything else fails the parse.
  int i_in(int lo, int hi) {
    const long long v = ll();
    if (v < lo || v > hi) {
      failed_ = true;
      return 0;
    }
    return static_cast<int>(v);
  }
  size_t zu() { return static_cast<size_t>(u64()); }
  bool b() { return i_in(0, 1) == 1; }

 private:
  void skip_ws() {
    while (p_ < end_ && std::isspace(static_cast<unsigned char>(*p_))) {
      ++p_;
    }
  }

  const char* p_;
  const char* end_;
  bool failed_ = false;
};

// Counts come from the input, so a reserve trusts at most this many
// elements up front; a larger (or corrupt) count grows the vector as the
// elements actually parse, and a truncated input fails before it is huge.
constexpr size_t kMaxReserve = size_t{1} << 20;

void write_series(Writer& w, const char* name,
                  const util::TimeSeries& series) {
  w.word("series");
  w.word(name);
  w.zu(series.size());
  for (const auto& p : series.points()) {
    w.d(p.t);
    w.d(p.value);
  }
  w.nl();
}

bool read_series(Cursor& c, const char* name, util::TimeSeries* out) {
  if (!c.expect("series") || !c.expect(name)) {
    return false;
  }
  const size_t n = c.zu();
  out->reserve(std::min(n, kMaxReserve));
  for (size_t i = 0; i < n; ++i) {
    const double t = c.d();
    const double v = c.d();
    // Reject out-of-order timestamps here: TimeSeries::add asserts on them,
    // and a truncated/corrupt file must surface as a parse error instead.
    if (c.failed() ||
        (out->size() > 0 && t < out->at(out->size() - 1).t)) {
      return false;
    }
    out->add(t, v);
  }
  return !c.failed();
}

void write_doubles(Writer& w, const char* name,
                   const std::vector<double>& values) {
  w.word(name);
  w.zu(values.size());
  for (double v : values) {
    w.d(v);
  }
  w.nl();
}

bool read_doubles(Cursor& c, const char* name, std::vector<double>* out) {
  if (!c.expect(name)) {
    return false;
  }
  const size_t n = c.zu();
  out->reserve(std::min(n, kMaxReserve));
  for (size_t i = 0; i < n && !c.failed(); ++i) {
    out->push_back(c.d());
  }
  return !c.failed();
}

void write_spec(Writer& w, const workload::JobSpec& spec) {
  w.u64(spec.id);
  w.u64(spec.tenant);
  w.i(static_cast<int>(spec.kind));
  w.d(spec.submit_time);
  w.i(static_cast<int>(spec.model));
  w.i(spec.train_config.nodes);
  w.i(spec.train_config.gpus_per_node);
  w.i(spec.train_config.batch_size);
  w.d(spec.train_config.net_gbps);
  w.d(spec.iterations);
  w.i(spec.requested_cpus);
  w.i(spec.hints.category_known ? 1 : 0);
  w.i(spec.hints.pipelined ? 1 : 0);
  w.i(spec.hints.large_weights ? 1 : 0);
  w.i(spec.hints.complex_prep ? 1 : 0);
  w.i(spec.cpu_cores);
  w.d(spec.cpu_work_core_s);
  w.d(spec.mem_bw_gbps);
  w.d(spec.bw_bound_fraction);
  w.d(spec.llc_mb);
  w.i(spec.user_facing ? 1 : 0);
  w.d(spec.checkpoint_interval_s);
  w.d(spec.checkpoint_overhead_s);
}

workload::JobSpec read_spec(Cursor& c) {
  workload::JobSpec spec;
  spec.id = c.u64();
  spec.tenant = static_cast<cluster::TenantId>(c.u64());
  spec.kind = static_cast<workload::JobKind>(
      c.i_in(0, static_cast<int>(workload::JobKind::kGpuTraining)));
  spec.submit_time = c.d();
  spec.model =
      static_cast<perfmodel::ModelId>(c.i_in(0, perfmodel::kModelCount - 1));
  spec.train_config.nodes = c.i();
  spec.train_config.gpus_per_node = c.i();
  spec.train_config.batch_size = c.i();
  spec.train_config.net_gbps = c.d();
  spec.iterations = c.d();
  spec.requested_cpus = c.i();
  spec.hints.category_known = c.b();
  spec.hints.pipelined = c.b();
  spec.hints.large_weights = c.b();
  spec.hints.complex_prep = c.b();
  spec.cpu_cores = c.i();
  spec.cpu_work_core_s = c.d();
  spec.mem_bw_gbps = c.d();
  spec.bw_bound_fraction = c.d();
  spec.llc_mb = c.d();
  spec.user_facing = c.b();
  spec.checkpoint_interval_s = c.d();
  spec.checkpoint_overhead_s = c.d();
  return spec;
}

util::Error parse_error(const std::string& what) {
  return util::Error{util::ErrorCode::kParseError,
                     "report deserialization failed: " + what};
}

// Upper bound on serialize_report's output, so the buffer is reserved once
// and never regrows (a regrowth copy holds the month report twice). Every
// token is charged its widest form plus a separator, every line a leading
// word and a newline; reserved pages that are never written never become
// resident.
size_t serialized_size_bound(const ExperimentReport& report) {
  constexpr size_t kD = 25;     // " -0x1.fffffffffffffp+1023"
  constexpr size_t kI = 12;     // " -2147483648"
  constexpr size_t kU = 21;     // " 18446744073709551615"
  constexpr size_t kLine = 32;  // leading word(s) and newline
  // Header, counts, scalars, eliminator, and the section header lines.
  size_t n = 16 * kLine + report.scheduler.size() + 11 * kI + 13 * kU +
             17 * kD;
  n += kD * (report.gpu_queue_times.size() + report.cpu_queue_times.size());
  for (const auto& [tenant, times] : report.queue_by_tenant) {
    n += kLine + 2 * kU + kD * times.size();
  }
  n += report.records.size() * (1 + 2 * kU + 18 * kI + 17 * kD);
  n += report.tuning_outcomes.size() * (1 + kU + 5 * kI);
  for (const util::TimeSeries* series :
       {&report.gpu_active_series, &report.gpu_util_series,
        &report.cpu_active_series, &report.cpu_util_series}) {
    n += 2 * kD * series->size();
  }
  return n;
}

}  // namespace

std::string serialize_report(const ExperimentReport& report) {
  std::string out;
  const size_t bound = serialized_size_bound(report);
  out.reserve(bound);
  Writer w(&out);

  w.word(kMagic);
  w.i(kReportFormatVersion);
  w.nl();
  w.word("scheduler");
  w.str(report.scheduler);
  w.nl();
  w.word("counts");
  w.zu(report.submitted);
  w.zu(report.completed);
  w.zu(report.events_dispatched);
  w.i(report.preemptions);
  w.i(report.migrations);
  w.zu(report.abandoned);
  w.i(report.node_failures);
  w.i(report.evictions);
  w.i(report.restarts);
  w.nl();
  w.word("scalars");
  w.d(report.horizon_s);
  w.d(report.gpu_active_rate);
  w.d(report.gpu_util_active);
  w.d(report.gpu_util_overall);
  w.d(report.cpu_active_rate);
  w.d(report.cpu_util_active);
  w.d(report.frag_rate);
  w.d(report.frag_case2_rate);
  w.d(report.gpu_active_when_queued);
  w.d(report.frag_when_queued);
  w.d(report.queued_time_fraction);
  w.d(report.busy_gpu_s);
  w.d(report.busy_core_s);
  w.d(report.wasted_gpu_s);
  w.d(report.wasted_core_s);
  w.d(report.gpu_goodput);
  w.d(report.cpu_goodput);
  w.nl();
  w.word("eliminator");
  w.i(report.eliminator_stats.checks);
  w.i(report.eliminator_stats.nodes_over_threshold);
  w.i(report.eliminator_stats.mba_throttles);
  w.i(report.eliminator_stats.core_halvings);
  w.i(report.eliminator_stats.releases);
  w.nl();

  write_doubles(w, "gpu_queue_times", report.gpu_queue_times);
  write_doubles(w, "cpu_queue_times", report.cpu_queue_times);

  w.word("tenants");
  w.zu(report.queue_by_tenant.size());
  w.nl();
  for (const auto& [tenant, times] : report.queue_by_tenant) {
    w.word("tenant");
    w.u64(tenant);
    w.zu(times.size());
    for (double v : times) {
      w.d(v);
    }
    w.nl();
  }

  w.word("records");
  w.zu(report.records.size());
  w.nl();
  for (const auto& record : report.records) {
    write_spec(w, record.spec);
    w.d(record.submit_time);
    w.d(record.first_start_time);
    w.d(record.finish_time);
    w.d(record.queue_time_total);
    w.i(record.preempt_count);
    w.i(record.final_cpus);
    w.i(record.completed ? 1 : 0);
    w.i(record.evict_count);
    w.i(record.restart_count);
    w.i(record.abandoned ? 1 : 0);
    w.d(record.busy_core_s);
    w.d(record.busy_gpu_s);
    w.d(record.wasted_core_s);
    w.d(record.wasted_gpu_s);
    w.nl();
  }

  w.word("tuning_outcomes");
  w.zu(report.tuning_outcomes.size());
  w.nl();
  for (const auto& outcome : report.tuning_outcomes) {
    w.u64(outcome.job);
    w.i(static_cast<int>(outcome.model));
    w.i(outcome.requested_cpus);
    w.i(outcome.start_cpus);
    w.i(outcome.final_cpus);
    w.i(outcome.profile_steps);
    w.nl();
  }

  write_series(w, "gpu_active", report.gpu_active_series);
  write_series(w, "gpu_util", report.gpu_util_series);
  write_series(w, "cpu_active", report.cpu_active_series);
  write_series(w, "cpu_util", report.cpu_util_series);
  w.word("end");
  w.nl();
  CODA_ASSERT(out.size() <= bound);
  return out;
}

util::Result<ExperimentReport> deserialize_report(const std::string& text) {
  Cursor c(text);
  if (!c.expect(kMagic)) {
    return parse_error("bad magic");
  }
  if (c.i() != kReportFormatVersion || c.failed()) {
    return parse_error("format version mismatch");
  }

  ExperimentReport report;
  if (!c.expect("scheduler")) {
    return parse_error("missing scheduler");
  }
  report.scheduler = c.word();
  if (!c.expect("counts")) {
    return parse_error("missing counts");
  }
  report.submitted = c.zu();
  report.completed = c.zu();
  report.events_dispatched = c.zu();
  report.preemptions = c.i();
  report.migrations = c.i();
  report.abandoned = c.zu();
  report.node_failures = c.i();
  report.evictions = c.i();
  report.restarts = c.i();
  if (!c.expect("scalars")) {
    return parse_error("missing scalars");
  }
  report.horizon_s = c.d();
  report.gpu_active_rate = c.d();
  report.gpu_util_active = c.d();
  report.gpu_util_overall = c.d();
  report.cpu_active_rate = c.d();
  report.cpu_util_active = c.d();
  report.frag_rate = c.d();
  report.frag_case2_rate = c.d();
  report.gpu_active_when_queued = c.d();
  report.frag_when_queued = c.d();
  report.queued_time_fraction = c.d();
  report.busy_gpu_s = c.d();
  report.busy_core_s = c.d();
  report.wasted_gpu_s = c.d();
  report.wasted_core_s = c.d();
  report.gpu_goodput = c.d();
  report.cpu_goodput = c.d();
  if (!c.expect("eliminator")) {
    return parse_error("missing eliminator stats");
  }
  report.eliminator_stats.checks = c.i();
  report.eliminator_stats.nodes_over_threshold = c.i();
  report.eliminator_stats.mba_throttles = c.i();
  report.eliminator_stats.core_halvings = c.i();
  report.eliminator_stats.releases = c.i();

  if (!read_doubles(c, "gpu_queue_times", &report.gpu_queue_times) ||
      !read_doubles(c, "cpu_queue_times", &report.cpu_queue_times)) {
    return parse_error("bad queue-time vectors");
  }

  if (!c.expect("tenants")) {
    return parse_error("missing tenants");
  }
  const size_t n_tenants = c.zu();
  for (size_t i = 0; i < n_tenants && !c.failed(); ++i) {
    if (!c.expect("tenant")) {
      return parse_error("bad tenant entry");
    }
    const auto tenant = static_cast<cluster::TenantId>(c.u64());
    const size_t n = c.zu();
    auto& times = report.queue_by_tenant[tenant];
    times.reserve(std::min(n, kMaxReserve));
    for (size_t j = 0; j < n && !c.failed(); ++j) {
      times.push_back(c.d());
    }
  }

  if (!c.expect("records")) {
    return parse_error("missing records");
  }
  const size_t n_records = c.zu();
  report.records.reserve(std::min(n_records, kMaxReserve));
  for (size_t i = 0; i < n_records && !c.failed(); ++i) {
    JobRecord record;
    record.spec = read_spec(c);
    record.submit_time = c.d();
    record.first_start_time = c.d();
    record.finish_time = c.d();
    record.queue_time_total = c.d();
    record.preempt_count = c.i();
    record.final_cpus = c.i();
    record.completed = c.b();
    record.evict_count = c.i();
    record.restart_count = c.i();
    record.abandoned = c.b();
    record.busy_core_s = c.d();
    record.busy_gpu_s = c.d();
    record.wasted_core_s = c.d();
    record.wasted_gpu_s = c.d();
    report.records.push_back(std::move(record));
  }

  if (!c.expect("tuning_outcomes")) {
    return parse_error("missing tuning outcomes");
  }
  const size_t n_outcomes = c.zu();
  report.tuning_outcomes.reserve(std::min(n_outcomes, kMaxReserve));
  for (size_t i = 0; i < n_outcomes && !c.failed(); ++i) {
    core::CodaScheduler::TuningOutcome outcome;
    outcome.job = c.u64();
    outcome.model =
        static_cast<perfmodel::ModelId>(c.i_in(0, perfmodel::kModelCount - 1));
    outcome.requested_cpus = c.i();
    outcome.start_cpus = c.i();
    outcome.final_cpus = c.i();
    outcome.profile_steps = c.i();
    report.tuning_outcomes.push_back(outcome);
  }

  if (!read_series(c, "gpu_active", &report.gpu_active_series) ||
      !read_series(c, "gpu_util", &report.gpu_util_series) ||
      !read_series(c, "cpu_active", &report.cpu_active_series) ||
      !read_series(c, "cpu_util", &report.cpu_util_series)) {
    return parse_error("bad time series");
  }
  if (!c.expect("end")) {
    return parse_error("missing end marker");
  }
  if (c.failed()) {
    return parse_error("truncated input");
  }
  return report;
}

}  // namespace coda::sim
