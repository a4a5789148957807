// coda_perfbench: the repository benchmark program.
//
//   coda_perfbench --workload replay-10k|replay-month
//                  --seed N --seconds S --trace 0|1 [--scratch DIR]
//   coda_perfbench --list-metrics   (workloads and metric catalog)
//
// --trace 0 measures the end-to-end metrics: the workload's trace replayed
// back to back for the run's seconds (at least once on every CPU), plus
// set-up. --trace 1 is the separate traced pass: the replay untraced, under
// the timing wrapper and under the wrapper plus stepping, then a live codad
// session serving the same trace with an open-loop SUBMIT/STATUS window and
// capacity probes, for the per-layer metrics. The last stdout line is the
// result object; the line before it ("perfbench-info ...") records the
// seed, trace size, hardware and build.
// Any failed output check sets correct=false and exits non-zero.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "measure.h"
#include "replay.h"
#include "serve.h"
#include "service/journal.h"
#include "service/protocol.h"
#include "sim/experiment.h"
#include "spans.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/strings.h"
#include "workload/trace_gen.h"
#include "workload/trace_io.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace coda;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool list = false;
  std::string scratch = ".bench_build/scratch";
  std::string source = "unknown";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "coda_perfbench: %s\nusage: coda_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--scratch DIR] "
               "[--source ID]\n       coda_perfbench --list-metrics\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--list-metrics") {
      a.list = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage(("missing value for " + k).c_str());
    }
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      auto s = util::parse_strict_u64(v);
      if (!s.ok()) {
        usage("bad --seed");
      }
      a.seed = *s;
      have_seed = true;
    } else if (k == "--seconds") {
      auto s = util::parse_strict_double(v, 1.0);
      if (!s.ok()) {
        usage("bad --seconds");
      }
      a.seconds = *s;
      have_seconds = true;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") {
        usage("--trace takes 0 or 1");
      }
      a.trace = v == "1";
      have_trace = true;
    } else if (k == "--scratch") {
      a.scratch = v;
    } else if (k == "--source") {
      a.source = v;
    } else {
      usage(("unknown flag " + k).c_str());
    }
  }
  if (!a.list && (a.workload.empty() || !have_seed || !have_seconds ||
                  !have_trace)) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

// Every CODA_* variable either changes a code path (engine threads, the
// placement index, the poll fallback, service limits) or redirects state
// (report cache); the benchmark measures only the defaults.
bool refuse_coda_environment() {
  bool found = false;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CODA_", 5) == 0) {
      std::fprintf(stderr, "coda_perfbench: refusing to run with %s set\n",
                   *e);
      found = true;
    }
  }
  return found;
}

// Pins the calling thread to one CPU per sample, rotating over the CPUs it
// may run on, and restores the original mask when destroyed. On a shared
// virtual machine the speed of a vCPU drifts with its neighbours' load, so
// samples of single-threaded work spread over every vCPU give a median that
// does not depend on which vCPU the process happened to start on.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    ok_ = sched_getaffinity(0, sizeof(original_), &original_) == 0;
    for (int c = 0; ok_ && c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) {
        cpus_.push_back(c);
      }
    }
  }
  ~CpuRotation() {
    if (ok_) {
      sched_setaffinity(0, sizeof(original_), &original_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin(size_t sample) {
    if (!ok_ || cpus_.empty()) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[sample % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  size_t count() const { return std::max<size_t>(1, cpus_.size()); }

 private:
  cpu_set_t original_;
  bool ok_ = false;
  std::vector<int> cpus_;
};

// SUBMIT rows for the live part: a month trace seeded apart from the base
// trace, cycled with fresh ids (from 10,000,000) so every SUBMIT is unique.
std::vector<std::string> make_submit_rows(uint64_t seed, size_t count) {
  const auto month = workload::TraceGenerator(month_trace(seed)).generate();
  std::vector<std::string> rows;
  rows.reserve(count);
  for (size_t k = 0; k < count; ++k) {
    workload::JobSpec spec = month[k % month.size()];
    spec.id = 10000000 + k;
    rows.push_back(workload::job_to_csv_row(spec));
  }
  return rows;
}

// A live codad session serving `base`: 2 shards, journal with fflush group
// commit, pacing at speedup 3600, and SUBMIT rows for the window and the
// probes.
LiveSpec live_spec(const std::vector<workload::JobSpec>& base,
                   const sim::ExperimentConfig& config, const Args& args) {
  LiveSpec spec;
  spec.session.policy = sim::Policy::kCoda;
  spec.session.config = config;
  spec.session.speedup = 3600.0;
  spec.session.base_trace_csv = workload::trace_to_csv(base);
  double horizon = 0.0;
  for (const auto& job : base) {
    horizon = std::max(horizon, job.submit_time);
  }
  spec.session.config.horizon_s = horizon;
  spec.status_fallback_id = base.front().id;
  spec.seed = args.seed;
  spec.journal_stem = args.scratch + "/journal";
  // The window's SUBMITs plus room for the probes' rising rates.
  const size_t rows =
      static_cast<size_t>(kLiveRate * kLiveWindowS / 2.0) + 200000;
  spec.submit_rows = make_submit_rows(args.seed ^ 0x5eedf00dULL, rows);
  return spec;
}

struct Info {
  std::string workload;
  uint64_t seed = 0;
  size_t jobs = 0;
  size_t nodes = 0;
  size_t events = 0;
  size_t live_base_jobs = 0;
  std::vector<double> replay_walls;
  std::vector<double> setups;
  std::vector<uint64_t> digests;
  std::vector<ProbeResult> probes;
  double window_s = 0.0;
  size_t window_submits = 0;
  size_t window_statuses = 0;
  std::vector<std::pair<std::string, double>> phases;
  // Counts that are zero in some healthy runs, so cannot be metrics.
  std::vector<std::pair<std::string, uint64_t>> counts;
};

void print_info(const Info& info, const Args& args) {
  std::string s = util::strfmt(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace_jobs\": %zu, "
      "\"trace_nodes\": %zu, \"trace_events\": %zu, \"live_base_jobs\": %zu, "
      "\"hardware_concurrency\": %u, \"build_type\": \"%s\", "
      "\"source\": \"%s\", \"traced\": %s, \"live_window_s\": %.3f, "
      "\"window_submits\": %zu, \"window_statuses\": %zu",
      info.workload.c_str(), static_cast<unsigned long long>(info.seed),
      info.jobs, info.nodes, info.events, info.live_base_jobs,
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      args.source.c_str(), args.trace ? "true" : "false", info.window_s,
      info.window_submits, info.window_statuses);
  s += ", \"replay_wall_s\": [";
  for (size_t i = 0; i < info.replay_walls.size(); ++i) {
    s += util::strfmt("%s%.4f", i ? ", " : "", info.replay_walls[i]);
  }
  s += "], \"setup_s\": [";
  for (size_t i = 0; i < info.setups.size(); ++i) {
    s += util::strfmt("%s%.4f", i ? ", " : "", info.setups[i]);
  }
  s += "], \"report_digests\": [";
  for (size_t i = 0; i < info.digests.size(); ++i) {
    s += util::strfmt("%s\"%016llx\"", i ? ", " : "",
                      static_cast<unsigned long long>(info.digests[i]));
  }
  s += "], \"phase_s\": {";
  for (size_t i = 0; i < info.phases.size(); ++i) {
    s += util::strfmt("%s\"%s\": %.3f", i ? ", " : "",
                      info.phases[i].first.c_str(), info.phases[i].second);
  }
  s += "}, \"counts\": {";
  for (size_t i = 0; i < info.counts.size(); ++i) {
    s += util::strfmt("%s\"%s\": %llu", i ? ", " : "",
                      info.counts[i].first.c_str(),
                      static_cast<unsigned long long>(info.counts[i].second));
  }
  s += "}, \"probes\": [";
  for (size_t i = 0; i < info.probes.size(); ++i) {
    const ProbeResult& p = info.probes[i];
    s += util::strfmt(
        "%s{\"rate\": %.0f, \"achieved\": %.1f, \"p99_ms\": %.3f, "
        "\"failed\": %zu, \"pass\": %s}",
        i ? ", " : "", p.rate, p.achieved,
        std::isinf(p.p99_ms) ? -1.0 : p.p99_ms, p.failed,
        p.pass ? "true" : "false");
  }
  s += "]}";
  std::printf("perfbench-info %s\n", s.c_str());
}

// Checks shared by every replay: it ran and its job accounting closes.
void check_replay(const ReplayResult& r, const char* what, RunResult* out) {
  out->add_attempted(1);
  if (!r.error.empty()) {
    out->add_failed(1);
    out->check(false, std::string(what) + ": " + r.error);
    return;
  }
  out->check(r.accounting_closes,
             std::string(what) +
                 ": completed + abandoned + censored == submitted");
}

void apply_live(const LiveResult& live, RunResult* out, Info* info) {
  out->check(live.error.empty(), "live session: " + live.error);
  for (const std::string& c : live.checks_failed) {
    out->check(false, c);
  }
  out->add_attempted(live.attempted);
  out->add_failed(live.failed);
  info->probes.insert(info->probes.end(), live.probes.begin(),
                      live.probes.end());
  info->window_submits += live.window_submits;
  info->window_statuses += live.window_statuses;
  info->phases.insert(info->phases.end(), live.phase_s.begin(),
                      live.phase_s.end());
  info->counts.emplace_back("service.busy_rejections",
                            live.counters.busy_rejections);
}

// A failed request counts as missing every latency limit; when a reported
// percentile lands on one, report the longest wait the run allows.
double finite_ms(double v) { return std::isinf(v) ? 5000.0 : v; }

void set_replay_metrics(const std::vector<ReplayResult>& runs,
                        RunResult* out) {
  std::vector<double> wall, eps;
  for (const ReplayResult& r : runs) {
    wall.push_back(r.wall_s());
    eps.push_back(static_cast<double>(r.events) / r.advance_s);
  }
  out->set("replay_wall_s", median(wall));
  out->set("events_per_s", median(eps));
}

// ---- traced pass ----------------------------------------------------------

void set_traced_replay_metrics(const ReplayInput& input, RunResult* out,
                               Info* info) {
  SpanRecorder wrapped_rec;
  SpanRecorder rec;
  const ReplayResult plain = run_replay(input, ReplayMode::kPlain, nullptr);
  const ReplayResult wrapped =
      run_replay(input, ReplayMode::kWrapped, &wrapped_rec);
  const ReplayResult traced = run_replay(input, ReplayMode::kTraced, &rec);
  check_replay(plain, "untraced replay", out);
  check_replay(wrapped, "wrapped replay", out);
  check_replay(traced, "traced replay", out);
  out->check(traced.restored_identical,
             "restored session re-captures the cut byte for byte");
  const std::string d1 = compare_counts(plain, wrapped);
  const std::string d2 = compare_counts(plain, traced);
  out->check(d1.empty(), "wrapper is transparent: " + d1);
  out->check(d2.empty(), "wrapper + stepping is transparent: " + d2);
  info->jobs = traced.jobs;
  info->nodes = traced.nodes;
  info->events = traced.events;
  info->digests = {plain.digest, wrapped.digest, traced.digest};
  info->counts.emplace_back("sim.bw_cap_n",
                            rec.totals(rec.id("sim.bw_cap")).count);
  info->counts.emplace_back("coda.throttles",
                            static_cast<uint64_t>(traced.throttles));
  info->replay_walls = {plain.wall_s(), wrapped.wall_s(), traced.wall_s()};

  auto span = [&](const char* name) -> const SpanRecorder::Totals& {
    return rec.totals(rec.id(name));
  };
  // Spans plus the residual make up the traced wall time exactly; the
  // residual is the stepping loop and whatever no span covers.
  double top = 0.0;
  for (const char* n : {"sim.event_step", "sim.metrics_tick",
                        "coda.eliminator_tick", "sim.report"}) {
    top += span(n).total_s;
  }
  out->check(traced.self_s >= 0.0 &&
                 std::abs(top + traced.self_s - traced.traced_wall_s) <
                     1e-6 * traced.traced_wall_s + 1e-9,
             "top-level spans + sim.self_s == traced wall time");

  out->set("workload.generate_s", traced.generate_s);
  out->set("simcore.events", static_cast<double>(traced.events));
  out->set("simcore.events_per_step",
           static_cast<double>(traced.events) /
               static_cast<double>(std::max<size_t>(1, traced.steps)));
  out->set("simcore.event_pool_chunks",
           static_cast<double>(traced.pool_chunks));
  out->set("sim.event_step_s", span("sim.event_step").total_s);
  out->set("sim.metrics_tick_s", span("sim.metrics_tick").total_s);
  for (const char* n : {"sim.start_job", "sim.resize_job", "sim.preempt_job",
                        "telemetry.pressure_screen",
                        "telemetry.gpu_util", "telemetry.sample",
                        "coda.kick"}) {
    out->set(std::string(n) + "_s", span(n).total_s);
    out->set(std::string(n) + "_n", static_cast<double>(span(n).count));
  }
  out->set("sim.node_recomputes", static_cast<double>(traced.node_recomputes));
  out->set("sim.rate_updates", static_cast<double>(traced.rate_updates));
  const double resched = static_cast<double>(traced.reschedules +
                                             traced.reschedules_skipped);
  out->set("sim.reschedule_skip_ratio",
           resched > 0.0 ? traced.reschedules_skipped / resched : 0.0);
  out->set("sim.report_s", span("sim.report").total_s);
  out->set("sim.load_trace_s", traced.load_trace_s);
  out->set("sim.self_s", traced.self_s);
  out->set("coda.kick_self_s", span("coda.kick").self_s());
  out->set("coda.submit_s", span("coda.submit").total_s);
  out->set("coda.finished_s", span("coda.finished").total_s);
  out->set("coda.eliminator_tick_s", span("coda.eliminator_tick").total_s);
  const double kicks = static_cast<double>(std::max<uint64_t>(1, traced.kicks));
  out->set("coda.starts_per_kick", traced.starts_in_kicks / kicks);
  out->set("coda.eliminator_checks",
           static_cast<double>(traced.eliminator_checks));
  out->set("cluster.index_probes", static_cast<double>(traced.index_probes));
  out->set("cluster.probes_per_kick", traced.probes_in_kicks / kicks);
  out->set("cluster.index_generation",
           static_cast<double>(traced.index_generation));
  out->set("perfmodel.cache_hits", static_cast<double>(traced.cache_hits));
  const double evals =
      static_cast<double>(traced.cache_hits + traced.cache_misses);
  out->set("perfmodel.cache_hit_ratio",
           evals > 0.0 ? traced.cache_hits / evals : 0.0);
  out->set("state.capture_s", traced.capture_s);
  out->set("state.parse_s", traced.parse_s);
  out->set("state.restore_s", traced.restore_s);
  out->set("state.snapshot_bytes", static_cast<double>(traced.snapshot_bytes));
  out->set("trace.untraced_wall_s", plain.wall_s());
  out->set("trace.traced_wall_s", traced.wall_s());
  out->set("trace.wrapper_wall_ratio", wrapped.wall_s() / plain.wall_s());
  out->set("trace.traced_wall_ratio", traced.wall_s() / plain.wall_s());
}

// Times the service layer's per-command calls over the exact lines the live
// window sent: envelope parse, CSV parse, and journal append + flush on a
// scratch journal.
void set_traced_service_metrics(const LiveSpec& spec, const LiveResult& live,
                                const std::string& scratch, RunResult* out) {
  std::vector<std::string> rows;
  const auto p0 = Clock::now();
  size_t parsed = 0;
  for (const std::string& line : live.window_lines) {
    auto env = service::parse_envelope(line);
    if (env.ok()) {
      ++parsed;
      if (env->request.verb == service::Verb::kSubmit) {
        rows.push_back(env->request.arg);
      }
    }
  }
  const auto p1 = Clock::now();
  out->check(parsed == live.window_lines.size(),
             "every generated request line parses");
  size_t csv_ok = 0;
  for (const std::string& row : rows) {
    csv_ok += workload::job_from_csv_row(row).ok() ? 1 : 0;
  }
  const auto p2 = Clock::now();
  out->check(csv_ok == rows.size(), "every generated SUBMIT row parses");
  // Timing loops include the vector pushes above; both are tiny beside the
  // parses and the same on every run.
  const double n_lines =
      static_cast<double>(std::max<size_t>(1, live.window_lines.size()));
  const double n_rows = static_cast<double>(std::max<size_t>(1, rows.size()));
  out->set("service.protocol_parse_us",
           seconds_between(p0, p1) * 1e6 / n_lines);
  out->set("service.csv_parse_us", seconds_between(p1, p2) * 1e6 / n_rows);

  const std::string path = scratch + "/layer.journal";
  auto writer = service::JournalWriter::open(path, spec.session);
  double append_s = 0.0;
  double flush_s = 0.0;
  if (writer.ok()) {
    for (size_t i = 0; i < rows.size(); ++i) {
      const auto a = Clock::now();
      const bool ok1 =
          writer->append_submit(1.0 + i, 20000000 + i, rows[i]).ok();
      const auto b = Clock::now();
      const bool ok2 = writer->flush().ok();
      const auto c = Clock::now();
      append_s += seconds_between(a, b);
      flush_s += seconds_between(b, c);
      out->check(ok1 && ok2, "scratch journal append + flush");
    }
    writer->close();
  } else {
    out->check(false, "scratch journal opens: " + writer.error().message);
  }
  std::remove(path.c_str());
  out->set("service.journal_append_us", append_s * 1e6 / n_rows);
  out->set("service.journal_flush_us", flush_s * 1e6 / n_rows);
  out->set("service.submit_p50_ms", finite_ms(live.submit_p50_ms));
  out->set("service.submit_p99_ms", finite_ms(live.submit_p99_ms));
  out->set("service.status_p99_ms", finite_ms(live.status_p99_ms));
  out->set("service.max_submit_rate", live.max_submit_rate);
  out->set("service.commands_routed",
           static_cast<double>(live.counters.commands_routed));
  out->set("service.gen_lag_p99_ms", live.gen_lag_p99_ms);
  // Median SUBMIT latency not spent in the per-call layers timed above: the
  // loopback hops, the I/O loop, the mailbox and the engine inject.
  out->set("service.submit_residual_ms",
           finite_ms(live.submit_p50_ms) -
               (out->get("service.protocol_parse_us") +
                out->get("service.csv_parse_us") +
                out->get("service.journal_append_us") +
                out->get("service.journal_flush_us")) /
                   1e3);
}

// ---- workloads -------------------------------------------------------------

int run(const Args& args) {
  RunResult out(args.trace);
  Info info;
  info.workload = args.workload;
  info.seed = args.seed;
  std::filesystem::create_directories(args.scratch);

  ReplayInput offline;
  if (args.workload == "replay-10k") {
    offline = scale_10k_input(args.seed);
  } else if (args.workload == "replay-month") {
    offline = month_input(args.seed);
  } else {
    usage(("unknown workload " + args.workload).c_str());
  }

  if (args.trace) {
    set_traced_replay_metrics(offline, &out, &info);
    // The live session serves the same trace (see the file comment).
    const std::vector<workload::JobSpec> base = offline.make_trace();
    info.live_base_jobs = base.size();
    info.window_s = kLiveWindowS;
    const LiveSpec spec = live_spec(base, offline.config, args);
    const LiveResult live = run_live(spec);
    apply_live(live, &out, &info);
    set_traced_service_metrics(spec, live, args.scratch, &out);
  } else {
    // Replays rotate over the CPUs: at least one round, then as many as fit
    // the run's seconds. Their median is reported.
    CpuRotation rotation;
    std::vector<ReplayResult> runs;
    std::vector<double> setups;
    const auto t0 = Clock::now();
    while (runs.size() < rotation.count() ||
           seconds_between(t0, Clock::now()) < args.seconds) {
      rotation.pin(runs.size());
      runs.push_back(run_replay(offline, ReplayMode::kPlain, nullptr));
      check_replay(runs.back(), "replay", &out);
      if (!runs.back().error.empty()) {
        break;
      }
      setups.push_back(runs.back().setup_s);
    }
    for (const ReplayResult& r : runs) {
      out.check(r.digest == runs.front().digest &&
                    compare_counts(r, runs.front()).empty(),
                "replays of one seed agree on report digest and counts");
      info.replay_walls.push_back(r.wall_s());
      info.digests.push_back(r.digest);
    }
    info.jobs = runs.front().jobs;
    info.nodes = runs.front().nodes;
    info.events = runs.front().events;
    set_replay_metrics(runs, &out);
    // Set-up is short and noisy: top the replays' samples up to nine.
    while (setups.size() < 9) {
      rotation.pin(setups.size());
      setups.push_back(run_setup_only(offline));
    }
    info.setups = setups;
    out.set("setup_s", median(setups));
    out.set("peak_rss_mb", peak_rss_mb());
  }

  std::error_code ec;
  std::filesystem::remove_all(args.scratch, ec);
  print_info(info, args);
  const std::string line = out.json();
  if (line.empty() || !out.correct()) {
    std::fprintf(stderr, "coda_perfbench: %zu output check(s) failed\n",
                 out.errors().size());
    if (!line.empty()) {
      std::printf("%s\n", line.c_str());
    }
    return 1;
  }
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  if (args.list) {
    for (const char* w : {"replay-10k", "replay-month"}) {
      std::printf("workload %s\n", w);
    }
    for (const MetricDef& d : end_to_end_metrics()) {
      std::printf("end_to_end %s %s\n", d.name, d.unit);
    }
    for (const MetricDef& d : per_layer_metrics()) {
      std::printf("per_layer %s %s\n", d.name, d.unit);
    }
    return 0;
  }
  if (refuse_coda_environment()) {
    return 2;
  }
  coda::util::set_log_level(coda::util::LogLevel::kWarn);
  return run(args);
}
