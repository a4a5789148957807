#include "replay.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "measure.h"
#include "sim/engine.h"
#include "sim/report_io.h"
#include "state/snapshot.h"
#include "timed_scheduler.h"
#include "util/strings.h"

namespace perfbench {

using namespace coda;

namespace {
constexpr sim::Policy kPolicy = sim::Policy::kCoda;
}  // namespace

workload::TraceConfig scale_10k_trace(uint64_t seed) {
  return workload::scale_profile(10000, /*gpu_jobs=*/15000,
                                 /*cpu_jobs=*/22500,
                                 /*duration_s=*/86400.0, seed);
}

ReplayInput scale_10k_input(uint64_t seed) {
  ReplayInput in;
  const workload::TraceConfig tc = scale_10k_trace(seed);
  in.make_trace = [tc] { return workload::TraceGenerator(tc).generate(); };
  in.config.engine.cluster.node_count = 10000;
  return in;
}

workload::TraceConfig month_trace(uint64_t seed) {
  // The paper's month on its 80-node cluster: 75,000 CPU jobs and the
  // calibrated GPU rate over 30 days (same shape as the standard week).
  workload::TraceConfig tc = sim::standard_week_trace(seed);
  tc.duration_s = 30.0 * 86400.0;
  tc.cpu_jobs = 75000;
  tc.gpu_jobs = 37500;
  return tc;
}

ReplayInput month_input(uint64_t seed) {
  ReplayInput in;
  const workload::TraceConfig tc = month_trace(seed);
  in.make_trace = [tc] { return workload::TraceGenerator(tc).generate(); };
  return in;
}

namespace {

// Drives the engine in kTraced mode: one span per distinct event instant,
// named after the kind of instant. Metrics ticks fire on multiples of
// metrics_period_s (the eliminator's period divides it, so its pass runs
// inside those steps too); eliminator-only instants are the remaining
// multiples of check_period_s; every other instant is event handling.
class Stepper {
 public:
  Stepper(SpanRecorder* rec, double metrics_period, double check_period)
      : rec_(rec),
        metrics_period_(metrics_period),
        check_period_(check_period),
        event_step_(rec->id("sim.event_step")),
        metrics_tick_(rec->id("sim.metrics_tick")),
        eliminator_tick_(rec->id("coda.eliminator_tick")) {}

  // Equivalent to engine.run_until(until).
  void advance(sim::ClusterEngine& engine, double until) {
    while (true) {
      const double t = engine.sim().next_event_time();
      if (t > until) {
        break;
      }
      Span s(rec_, kind_of(t));
      engine.run_until(t);
      ++steps_;
    }
    engine.run_until(until);  // dispatches nothing; sets the clock
  }

  // Equivalent to engine.drain(hard_cap): the same 6-hour chunks and stop
  // rule as ClusterEngine::drain (the report digest check catches drift).
  void drain(sim::ClusterEngine& engine, double hard_cap) {
    while (engine.sim().now() < hard_cap &&
           engine.finished_jobs() + engine.abandoned_jobs() <
               engine.records().size()) {
      advance(engine, std::min(hard_cap, engine.sim().now() + 6.0 * 3600.0));
    }
  }

  size_t steps() const { return steps_; }

 private:
  int kind_of(double t) const {
    if (std::fmod(t, metrics_period_) == 0.0) {
      return metrics_tick_;
    }
    if (check_period_ > 0.0 && std::fmod(t, check_period_) == 0.0) {
      return eliminator_tick_;
    }
    return event_step_;
  }

  SpanRecorder* rec_;
  double metrics_period_;
  double check_period_;
  int event_step_;
  int metrics_tick_;
  int eliminator_tick_;
  size_t steps_ = 0;
};

}  // namespace

ReplayResult run_replay(const ReplayInput& input, ReplayMode mode,
                        SpanRecorder* rec) {
  ReplayResult r;
  const sim::ExperimentConfig& config = input.config;

  // ---- set-up ----
  const auto s0 = Clock::now();
  const std::vector<workload::JobSpec> trace = input.make_trace();
  const auto s1 = Clock::now();
  sim::PolicyScheduler ps = sim::make_policy_scheduler(kPolicy, config);
  std::unique_ptr<TimedScheduler> wrapper;
  if (mode != ReplayMode::kPlain) {
    wrapper = std::make_unique<TimedScheduler>(ps.scheduler.get(), rec);
  }
  sched::Scheduler* attached =
      wrapper ? static_cast<sched::Scheduler*>(wrapper.get())
              : ps.scheduler.get();
  sim::ClusterEngine engine(config.engine, attached);
  const auto s2 = Clock::now();
  engine.load_trace(trace);
  const auto s3 = Clock::now();
  r.generate_s = seconds_between(s0, s1);
  r.load_trace_s = seconds_between(s2, s3);
  r.setup_s = seconds_between(s0, s3);
  r.jobs = trace.size();
  r.nodes = engine.cluster().node_count();

  double horizon = config.horizon_s;
  if (horizon <= 0.0) {
    for (const auto& spec : trace) {
      horizon = std::max(horizon, spec.submit_time);
    }
  }
  sim::schedule_failures(&engine, config, horizon);

  std::unique_ptr<Stepper> stepper;
  if (mode == ReplayMode::kTraced) {
    stepper = std::make_unique<Stepper>(rec, config.engine.metrics_period_s,
                                        config.coda.eliminator.enabled
                                            ? config.coda.eliminator
                                                  .check_period_s
                                            : 0.0);
  }
  const int report_span = rec != nullptr ? rec->id("sim.report") : 0;
  const double top0 = rec != nullptr ? rec->top_level_s() : 0.0;
  auto advance = [&](double until) {
    if (stepper) {
      stepper->advance(engine, until);
    } else {
      engine.run_until(until);
    }
  };

  // ---- first half ----
  const auto a0 = Clock::now();
  advance(0.5 * horizon);
  const auto a1 = Clock::now();
  const double top_after_first = rec != nullptr ? rec->top_level_s() : 0.0;

  // ---- snapshot cut (traced mode): capture, then parse + restore into a
  // second session; the original engine continues. ----
  if (mode == ReplayMode::kTraced) {
    state::SnapshotMeta meta;
    meta.seq = 1;
    meta.virtual_time = engine.sim().now();
    meta.dispatched = engine.sim().dispatched();
    const auto c0 = Clock::now();
    auto blob = state::capture_snapshot(meta, "", engine, *ps.scheduler);
    const auto c1 = Clock::now();
    if (!blob.ok()) {
      r.error = "capture_snapshot: " + blob.error().message;
      return r;
    }
    auto parsed = state::parse_snapshot(*blob);
    const auto c2 = Clock::now();
    if (!parsed.ok()) {
      r.error = "parse_snapshot: " + parsed.error().message;
      return r;
    }
    auto restored = state::restore_session(*parsed, kPolicy, config, trace);
    const auto c3 = Clock::now();
    if (!restored.ok()) {
      r.error = "restore_session: " + restored.error().message;
      return r;
    }
    r.capture_s = seconds_between(c0, c1);
    r.parse_s = seconds_between(c1, c2);
    r.restore_s = seconds_between(c2, c3);
    r.snapshot_bytes = blob->size();
    auto again = state::capture_snapshot(meta, "", *restored->engine,
                                         *restored->scheduler.scheduler);
    r.restored_identical = again.ok() && *again == *blob;
  }

  // ---- second half + drain ----
  const double top_before_second = rec != nullptr ? rec->top_level_s() : 0.0;
  const auto b0 = Clock::now();
  advance(horizon);
  if (stepper) {
    stepper->drain(engine, horizon + config.drain_slack_s);
  } else {
    engine.drain(horizon + config.drain_slack_s);
  }
  const auto b1 = Clock::now();
  std::string text;
  {
    Span s(mode == ReplayMode::kTraced ? rec : nullptr, report_span);
    text = sim::serialize_report(sim::build_report(
        kPolicy, engine, trace.size(), horizon, ps.coda));
  }
  const auto b2 = Clock::now();
  r.advance_s = seconds_between(a0, a1) + seconds_between(b0, b1);
  r.report_s = seconds_between(b1, b2);

  if (rec != nullptr) {
    r.traced_wall_s = r.wall_s();
    const double spans = (top_after_first - top0) +
                         (rec->top_level_s() - top_before_second);
    r.self_s = r.traced_wall_s - spans;
  }
  if (stepper) {
    r.steps = stepper->steps();
  }

  // ---- outputs and counters ----
  r.events = engine.sim().dispatched();
  r.digest = fnv1a(text);
  auto report = sim::deserialize_report(text);
  if (!report.ok()) {
    r.error = "deserialize_report: " + report.error().message;
    return r;
  }
  r.submitted = report->submitted;
  r.completed = report->completed;
  r.abandoned = report->abandoned;
  r.censored = report->submitted - report->completed - report->abandoned;
  r.accounting_closes =
      job_accounting_closes(*report) && report->submitted == trace.size();
  const auto& st = engine.engine_stats();
  r.node_recomputes = st.node_recomputes;
  r.rate_updates = st.rate_updates;
  r.reschedules = st.reschedules;
  r.reschedules_skipped = st.reschedules_skipped;
  r.pool_chunks = engine.sim().event_pool_stats().chunks;
  r.index_probes = engine.cluster().placement_index().stats().probes;
  r.index_generation = engine.cluster().placement_index().generation();
  r.cache_hits = engine.perf().cache_stats().hits;
  r.cache_misses = engine.perf().cache_stats().misses;
  if (ps.coda != nullptr) {
    const core::EliminatorStats& es = ps.coda->eliminator_stats();
    r.eliminator_checks = es.checks;
    r.throttles = es.mba_throttles + es.core_halvings;
  }
  if (wrapper) {
    r.kicks = wrapper->kicks();
    r.starts_in_kicks = wrapper->starts_in_kicks();
    r.probes_in_kicks = wrapper->probes_in_kicks();
  }
  return r;
}

double run_setup_only(const ReplayInput& input) {
  const auto s0 = Clock::now();
  const std::vector<workload::JobSpec> trace = input.make_trace();
  sim::PolicyScheduler ps =
      sim::make_policy_scheduler(kPolicy, input.config);
  sim::ClusterEngine engine(input.config.engine, ps.scheduler.get());
  engine.load_trace(trace);
  return seconds_between(s0, Clock::now());
}

bool job_accounting_closes(const sim::ExperimentReport& report) {
  size_t completed = 0;
  size_t abandoned = 0;
  size_t censored = 0;
  for (const sim::JobRecord& job : report.records) {
    if (job.completed) {
      ++completed;
    } else if (job.abandoned) {
      ++abandoned;
    } else {
      ++censored;
    }
  }
  return completed == report.completed && abandoned == report.abandoned &&
         completed + abandoned + censored == report.submitted &&
         report.records.size() == report.submitted;
}

std::string compare_counts(const ReplayResult& a, const ReplayResult& b) {
  struct Field {
    const char* name;
    uint64_t a;
    uint64_t b;
  };
  const Field fields[] = {
      {"events", a.events, b.events},
      {"digest", a.digest, b.digest},
      {"node_recomputes", a.node_recomputes, b.node_recomputes},
      {"rate_updates", a.rate_updates, b.rate_updates},
      {"reschedules", a.reschedules, b.reschedules},
      {"reschedules_skipped", a.reschedules_skipped, b.reschedules_skipped},
      {"pool_chunks", a.pool_chunks, b.pool_chunks},
      {"index_probes", a.index_probes, b.index_probes},
      {"index_generation", a.index_generation, b.index_generation},
      {"cache_hits", a.cache_hits, b.cache_hits},
      {"cache_misses", a.cache_misses, b.cache_misses},
      {"eliminator_checks", static_cast<uint64_t>(a.eliminator_checks),
       static_cast<uint64_t>(b.eliminator_checks)},
      {"throttles", static_cast<uint64_t>(a.throttles),
       static_cast<uint64_t>(b.throttles)},
  };
  for (const Field& f : fields) {
    if (f.a != f.b) {
      return util::strfmt("%s differs: %llu vs %llu", f.name,
                          static_cast<unsigned long long>(f.a),
                          static_cast<unsigned long long>(f.b));
    }
  }
  return std::string();
}

}  // namespace perfbench
