// Serial engine equivalence suite: the engine must produce *byte-identical*
// experiment reports whichever placement path serves the schedulers (the
// placement index or the linear scans it replaced) and across a mid-run
// snapshot/restore — serialize_report writes doubles as hexfloats, so
// equality here is exact trajectory equality. The stress trace turns on
// every replay-relevant mechanism at once (retry backoff, Poisson node
// outages, utilization noise, wide multi-node gangs) under all three
// policies.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sched/placement.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/report_io.h"
#include "state/snapshot.h"
#include "workload/trace_gen.h"

namespace coda::sim {
namespace {

// Scopes the process-global placement-path switch to one session build.
// Schedulers read it on every search, so it stays set for the whole run.
struct IndexToggle {
  explicit IndexToggle(bool enabled) {
    sched::set_placement_index_enabled(enabled);
  }
  ~IndexToggle() { sched::set_placement_index_enabled(true); }
};

std::vector<workload::JobSpec> stress_trace() {
  // A compressed cut of the standard evaluation trace: same generator and
  // marginals, six hours instead of a week so the replays stay fast.
  workload::TraceConfig cfg = standard_week_trace();
  cfg.duration_s = 6.0 * 3600.0;
  cfg.cpu_jobs /= 28;
  cfg.gpu_jobs /= 28;
  // Wide training gangs dirty 4 nodes per start/finish, so one flush
  // recomputes several nodes whose rates depend on each other.
  cfg.wide_span_fraction = 0.5;
  cfg.wide_span_nodes = 4;
  return workload::TraceGenerator(cfg).generate();
}

ExperimentConfig stress_config(double horizon_s) {
  // Every mechanism that touches the flush path is on: retries re-enter
  // placement, outages evict whole nodes (mass dirtying), and utilization
  // noise draws from the per-engine RNG stream during sampling.
  ExperimentConfig config;
  config.horizon_s = horizon_s;
  config.engine.util_noise_stddev = 0.05;
  config.engine.noise_seed = 0xBADC0FFEE;
  config.retry.enabled = true;
  config.retry.backoff_base_s = 30.0;
  config.retry.max_retries = 3;
  config.failures.node_mtbf_s = 4.0 * 3600.0;
  config.failures.outage_s = 300.0;
  config.failures.seed = 0x5EEDF00D;
  return config;
}

struct Session {
  PolicyScheduler scheduler;
  std::unique_ptr<ClusterEngine> engine;
};

Session start_session(Policy policy, const ExperimentConfig& config,
                      const std::vector<workload::JobSpec>& trace) {
  Session s;
  s.scheduler = make_policy_scheduler(policy, config);
  s.engine = std::make_unique<ClusterEngine>(config.engine,
                                             s.scheduler.scheduler.get());
  s.engine->load_trace(trace);
  schedule_failures(s.engine.get(), config, config.horizon_s);
  return s;
}

std::string finish_and_report(Policy policy, const ExperimentConfig& config,
                              size_t submitted, Session& s) {
  s.engine->run_until(config.horizon_s);
  s.engine->drain(config.horizon_s + config.drain_slack_s);
  return serialize_report(build_report(policy, *s.engine, submitted,
                                       config.horizon_s, s.scheduler.coda));
}

TEST(EngineEquivalence, IndexedMatchesScanAcrossPolicies) {
  const auto trace = stress_trace();
  const ExperimentConfig config = stress_config(6.0 * 3600.0);

  for (Policy policy : {Policy::kFifo, Policy::kDrf, Policy::kCoda}) {
    SCOPED_TRACE(to_string(policy));
    Session indexed = start_session(policy, config, trace);
    const std::string want =
        finish_and_report(policy, config, trace.size(), indexed);
    // The equivalence must be earned: the indexed run has to actually
    // query the index, or this degrades to scan-vs-scan.
    EXPECT_GT(indexed.engine->cluster().placement_index().stats().probes, 0u);

    IndexToggle scan(false);
    Session scanned = start_session(policy, config, trace);
    EXPECT_EQ(finish_and_report(policy, config, trace.size(), scanned), want);
  }
}

TEST(EngineEquivalence, MidRunRestoreMatchesStraightThrough) {
  // Cut a session mid-flight, snapshot, restore, and finish. The final
  // report must match a session that ran straight through — crossing the
  // flush-before-capture boundary and the restore path's node-state
  // rebuild in one assertion.
  const auto trace = stress_trace();
  const ExperimentConfig config = stress_config(6.0 * 3600.0);
  const Policy policy = Policy::kCoda;

  Session straight = start_session(policy, config, trace);
  const std::string want =
      finish_and_report(policy, config, trace.size(), straight);

  Session cut = start_session(policy, config, trace);
  cut.engine->run_until(0.45 * config.horizon_s);

  state::SnapshotMeta meta;
  meta.seq = 1;
  meta.virtual_time = cut.engine->sim().now();
  meta.dispatched = cut.engine->sim().dispatched();
  auto blob = state::capture_snapshot(meta, "offline", *cut.engine,
                                      *cut.scheduler.scheduler);
  ASSERT_TRUE(blob.ok()) << blob.error().message;
  auto parsed = state::parse_snapshot(*blob);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;

  auto restored = state::restore_session(*parsed, policy, config, trace);
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  EXPECT_EQ(restored->engine->sim().now(), cut.engine->sim().now());

  Session resumed;
  resumed.scheduler = std::move(restored->scheduler);
  resumed.engine = std::move(restored->engine);
  const std::string got =
      finish_and_report(policy, config, trace.size(), resumed);
  EXPECT_EQ(got, want);
}

TEST(EngineEquivalence, TenThousandNodeIndexedMatchesScan) {
  // The 10k-node regime is where the placement index and the occupied-node
  // screens carry the hot path; a short scale-profile cut checks that the
  // indexed run reproduces a linear-scan run byte for byte there.
  workload::TraceConfig tc = workload::scale_profile(
      10000, /*gpu_jobs=*/300, /*cpu_jobs=*/450, /*duration_s=*/1800.0);
  const auto trace = workload::TraceGenerator(tc).generate();

  ExperimentConfig config;
  config.engine.cluster.node_count = 10000;
  config.horizon_s = 1800.0;

  Session indexed = start_session(Policy::kCoda, config, trace);
  const std::string want =
      finish_and_report(Policy::kCoda, config, trace.size(), indexed);

  IndexToggle scan(false);
  Session scanned = start_session(Policy::kCoda, config, trace);
  EXPECT_EQ(finish_and_report(Policy::kCoda, config, trace.size(), scanned),
            want);
}

}  // namespace
}  // namespace coda::sim
