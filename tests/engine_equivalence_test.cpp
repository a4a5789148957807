// Serial engine equivalence suite. Two contracts:
//   - The placement index is the only search the schedulers use; at every
//     event instant of a replay, each indexed query must answer what the
//     oracle's linear scans (tests/oracle/placement_oracle.h) answer, and
//     the fragmentation samples must equal the oracle's sums.
//   - The experiment reports are byte-identical to the ones recorded when
//     the linear scans still served the schedulers, and across a mid-run
//     snapshot/restore — serialize_report writes doubles as hexfloats, so
//     equality here is exact trajectory equality.
// The stress trace turns on every replay-relevant mechanism at once (retry
// backoff, Poisson node outages, utilization noise, wide multi-node gangs)
// under all three policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "oracle/oracle.h"
#include "oracle/placement_oracle.h"
#include "sched/placement.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/report_io.h"
#include "simcore/event_tags.h"
#include "state/snapshot.h"
#include "workload/trace_gen.h"

namespace coda::sim {
namespace {

using oracle::PlacementOracle;

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

// FNV-1a over a serialized report.
uint64_t report_digest(const std::string& report) {
  uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : report) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// The request shapes every indexed query is checked on: CPU jobs and
// single- and multi-node GPU gangs, from a single core to a whole node.
const sched::PlacementRequest kShapes[] = {
    {1, 0, 1}, {1, 0, 8},  {1, 1, 14}, {1, 2, 6},
    {1, 5, 28}, {2, 1, 6}, {2, 4, 8},  {4, 2, 14},
};

// Holds a session's placement index to the oracle while it replays.
class OracleCheck {
 public:
  explicit OracleCheck(Session* s) : s_(s) {
    // Take over the metrics tick so the fragmentation samples are checked
    // at the exact state they were computed from (later events at the same
    // instant may change it).
    s_->engine->sim().set_handler(
        simcore::kTagMetricsTick, [this](const simcore::EventTag&) {
          oracle::EngineOracle::sample_metrics(*s_->engine);
          check_fragmentation();
        });
  }

  // Equivalent to the session's run_until(horizon) + drain (the chunking
  // and stop rule of ClusterEngine::drain), one event instant at a time,
  // checking after each.
  std::string finish_and_report(Policy policy, const ExperimentConfig& config,
                                size_t submitted) {
    ClusterEngine& engine = *s_->engine;
    advance(config.horizon_s);
    const double hard_cap = config.horizon_s + config.drain_slack_s;
    while (!testing::Test::HasFatalFailure() &&
           engine.sim().now() < hard_cap &&
           engine.finished_jobs() + engine.abandoned_jobs() <
               engine.records().size()) {
      advance(std::min(hard_cap, engine.sim().now() + 6.0 * 3600.0));
    }
    return serialize_report(build_report(policy, engine, submitted,
                                         config.horizon_s,
                                         s_->scheduler.coda));
  }

  size_t instants_checked() const { return instants_; }
  // Index probes the checks themselves made.
  uint64_t own_probes() const { return own_probes_; }
  size_t frag_samples_checked() const { return frag_samples_; }

 private:
  // Stops at the first fatal mismatch: the engine state is then suspect.
  void advance(double until) {
    ClusterEngine& engine = *s_->engine;
    while (engine.sim().next_event_time() <= until) {
      engine.run_until(engine.sim().next_event_time());
      check_instant();
      if (testing::Test::HasFatalFailure()) {
        return;
      }
    }
    engine.run_until(until);
  }

  void check_instant() {
    const cluster::Cluster& cluster = s_->engine->cluster();
    const cluster::PlacementIndex& index = cluster.placement_index();
    const core::CodaScheduler* coda = s_->scheduler.coda;
    // The query answers are functions of the nodes' free counts, the index
    // state and the ranges; the shape grid is re-checked only when one of
    // them moved. The bias table is checked at every instant.
    const std::vector<sched::IdRange> ranges =
        coda != nullptr ? PlacementOracle::gpu_ranges(*coda)
                        : std::vector<sched::IdRange>{sched::IdRange{}};
    uint64_t state = index.generation();
    for (const sched::IdRange& r : ranges) {
      state = state * 1099511628211ULL + r.lo;
    }
    for (const cluster::Node& node : cluster.nodes()) {
      state = state * 1099511628211ULL +
              static_cast<uint64_t>(node.free_gpus() * 1024 + node.free_cpus());
      // The index's adjusted table must equal the scheduler's CPU-array
      // budget on every node.
      const int adjusted =
          std::max(0, node.free_cpus() - index.cpu_bias(node.id()));
      if (coda != nullptr &&
          adjusted != PlacementOracle::cpu_array_free_cores(*coda, node)) {
        FAIL() << "node " << node.id() << " adjusted cores " << adjusted
               << " != CPU-array budget "
               << PlacementOracle::cpu_array_free_cores(*coda, node) << " t "
               << s_->engine->sim().now();
      }
    }
    if (instants_ > 0 && state == last_state_) {
      return;
    }
    last_state_ = state;
    ++instants_;
    const uint64_t probes_before = index.stats().probes;
    const PlacementOracle oracle =
        coda != nullptr ? PlacementOracle(cluster, *coda)
                        : PlacementOracle(cluster);
    check_queries(cluster, oracle, ranges);
    if (coda != nullptr) {
      check_cpu_array(index, oracle);
    }
    own_probes_ += index.stats().probes - probes_before;
  }

  void check_queries(const cluster::Cluster& cluster,
                     const PlacementOracle& oracle,
                     const std::vector<sched::IdRange>& ranges) {
    std::vector<cluster::NodeId> evict;
    for (const sched::PlacementRequest& req : kShapes) {
      for (const sched::IdRange& r : ranges) {
        const auto where = [&] {
          return testing::Message()
                 << "t " << s_->engine->sim().now() << " shape " << req.nodes
                 << "x(" << req.gpus_per_node << "g," << req.cpus_per_node
                 << "c) range [" << r.lo << "," << r.hi << ")";
        };
        const auto got = sched::find_placement(cluster, req, r);
        const auto want = oracle.find_placement(req, r);
        ASSERT_EQ(got.has_value(), want.has_value()) << where();
        if (got.has_value()) {
          ASSERT_EQ(got->nodes.size(), want->nodes.size()) << where();
          for (size_t i = 0; i < got->nodes.size(); ++i) {
            ASSERT_EQ(got->nodes[i].node, want->nodes[i].node)
                << where() << " leg " << i;
          }
        }
        ASSERT_EQ(sched::count_feasible(cluster, req, r, 16),
                  oracle.count_feasible(req, r, 16))
            << where();
        sched::eviction_candidates(cluster, req, r, &evict);
        ASSERT_EQ(evict, oracle.eviction_candidates(req, r)) << where();
      }
    }
  }

  // The CPU-array pick as these replays make it (preemption on, so the
  // scheduler may borrow; placement_index_test covers may_borrow = false).
  void check_cpu_array(const cluster::PlacementIndex& index,
                       const PlacementOracle& oracle) {
    for (const int cpus : {1, 2, 4, 8, 16}) {
      // The scheduler's composition of the two indexed picks.
      PlacementOracle::CpuFit got{index.best_adjusted_fit(cpus), false};
      if (got.node == PlacementOracle::kNone) {
        got.node = index.best_free_cpu_fit(cpus);
        got.borrows = got.node != PlacementOracle::kNone;
      }
      ASSERT_EQ(got, oracle.cpu_array_best_fit(cpus, /*may_borrow=*/true))
          << "t " << s_->engine->sim().now() << " cpus " << cpus;
    }
  }

  void check_fragmentation() {
    const ClusterEngine& engine = *s_->engine;
    const sched::Scheduler& scheduler = *s_->scheduler.scheduler;
    double want_cpu = 0.0;
    double want_adjacency = 0.0;
    if (const auto demand = scheduler.min_pending_gpu_demand()) {
      const auto f = PlacementOracle(engine.cluster())
                         .fragmentation(*demand, [&](cluster::NodeId id) {
                           return scheduler.reclaimable_cpus(id);
                         });
      const double gpus = engine.cluster().total_gpus();
      want_cpu = static_cast<double>(f.cpu_starved) / gpus;
      want_adjacency = static_cast<double>(f.adjacency) / gpus;
      ++frag_samples_;
    }
    const auto last = [&](const char* name) {
      return engine.metrics().series(name).points().back().value;
    };
    EXPECT_EQ(last("gpu_frag_rate"), want_cpu) << "t " << engine.sim().now();
    EXPECT_EQ(last("gpu_frag_case2_rate"), want_adjacency)
        << "t " << engine.sim().now();
  }

  Session* s_;
  uint64_t last_state_ = 0;
  uint64_t own_probes_ = 0;
  size_t instants_ = 0;
  size_t frag_samples_ = 0;
};

// What a checked replay did: its report digest and how much it checked.
struct CheckedRun {
  uint64_t digest = 0;
  size_t instants = 0;      // distinct states the shape grid was checked on
  size_t frag_samples = 0;  // fragmentation samples taken with GPU work
};

// Replays `trace` under `policy` with the oracle check on every instant.
CheckedRun checked_replay(Policy policy, const ExperimentConfig& config,
                          const std::vector<workload::JobSpec>& trace) {
  Session s = start_session(policy, config, trace);
  OracleCheck check(&s);
  const std::string report =
      check.finish_and_report(policy, config, trace.size());
  // The equivalence must be earned: the schedulers have to query the index,
  // not only the checks.
  EXPECT_GT(s.engine->cluster().placement_index().stats().probes,
            check.own_probes());
  return CheckedRun{report_digest(report), check.instants_checked(),
                    check.frag_samples_checked()};
}

// Report digests recorded when the schedulers could still run on linear
// scans; the scan and indexed runs produced these same bytes.
TEST(EngineEquivalence, IndexedMatchesScanAcrossPolicies) {
  const auto trace = stress_trace();
  const ExperimentConfig config = stress_config(6.0 * 3600.0);
  struct Case {
    Policy policy;
    uint64_t digest;
  };
  const Case cases[] = {
      {Policy::kFifo, 0x708bc22c64617519ULL},
      {Policy::kDrf, 0x7b2d367bcdecf188ULL},
      {Policy::kCoda, 0xb491b189a695ac95ULL},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(to_string(c.policy));
    const CheckedRun run = checked_replay(c.policy, config, trace);
    EXPECT_EQ(run.digest, c.digest);
    EXPECT_GT(run.instants, 1000u);
    // The stress trace keeps GPU jobs waiting, so the fragmentation
    // samples are non-trivial.
    EXPECT_GT(run.frag_samples, 100u);
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
  // screens carry the hot path; a short scale-profile cut.
  workload::TraceConfig tc = workload::scale_profile(
      10000, /*gpu_jobs=*/300, /*cpu_jobs=*/450, /*duration_s=*/1800.0);
  const auto trace = workload::TraceGenerator(tc).generate();

  ExperimentConfig config;
  config.engine.cluster.node_count = 10000;
  config.horizon_s = 1800.0;
  const CheckedRun run = checked_replay(Policy::kCoda, config, trace);
  EXPECT_EQ(run.digest, 0xb30a1e521d12a7dbULL);
  EXPECT_GT(run.instants, 1000u);
}

// bench_scale's fast-mode cases, replayed to their last submit time and
// drained as the bench does.
void check_scale_profile(int nodes, const workload::TraceConfig& tc,
                         uint64_t digest) {
  const auto trace = workload::TraceGenerator(tc).generate();
  ExperimentConfig config;
  config.engine.cluster.node_count = nodes;
  config.horizon_s = 0.0;
  for (const auto& spec : trace) {
    config.horizon_s = std::max(config.horizon_s, spec.submit_time);
  }
  const CheckedRun run = checked_replay(Policy::kCoda, config, trace);
  EXPECT_EQ(run.digest, digest);
  EXPECT_GT(run.instants, 1000u);
}

TEST(EngineEquivalence, ScaleBench2kSmokeMatchesScan) {
  check_scale_profile(2000,
                      workload::scale_profile(2000, /*gpu_jobs=*/600,
                                              /*cpu_jobs=*/900,
                                              /*duration_s=*/4.0 * 3600.0),
                      0x4f51b3cf248c9e68ULL);
}

TEST(EngineEquivalence, ScaleBench10kSmokeMatchesScan) {
  check_scale_profile(10000,
                      workload::scale_profile(10000, /*gpu_jobs=*/1200,
                                              /*cpu_jobs=*/1800,
                                              /*duration_s=*/2.0 * 3600.0),
                      0xed16fada53146ed6ULL);
}

}  // namespace
}  // namespace coda::sim
