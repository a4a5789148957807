// Random-walk equivalence of the incremental periodic ticks against the
// reference scans in tests/oracle.
//
// Two engines replay the same seeded walk — starts, natural finishes,
// preemptions, resizes, MBA caps and node failures on a mixed MBA /
// non-MBA cluster, with utilization noise on. One runs the production
// eliminator (screened hot set), the other the reference scan of every
// occupied node. After every eliminator tick the eliminators' stats and
// throttle records, and the engines' complete serialized state, must
// match; after every metrics tick the production series values must equal
// the reference aggregates bit for bit, and the hot-set screen must list
// exactly the occupied nodes at or above the floor.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "coda/eliminator.h"
#include "oracle/oracle.h"
#include "sim/engine.h"
#include "state/serde.h"
#include "util/rng.h"
#include "workload/heat.h"

namespace coda {
namespace {

using cluster::JobId;
using cluster::NodeId;

// Hands the walk the engine's scheduler callbacks and mirrors what a real
// policy does on the engine's notifications: forget throttles of jobs that
// leave, requeue evicted jobs.
class WalkScheduler : public sched::Scheduler {
 public:
  const char* name() const override { return "walk"; }
  void submit(const workload::JobSpec& spec) override {
    pending.push_back(spec.id);
  }
  void on_job_finished(const workload::JobSpec& spec) override {
    elim->forget_job(spec.id);
    running.erase(spec.id);
  }
  void on_job_evicted(const workload::JobSpec& spec) override {
    elim->forget_job(spec.id);
    running.erase(spec.id);
    pending.push_back(spec.id);
  }
  void kick() override {}
  size_t pending_jobs() const override { return pending.size(); }
  size_t pending_gpu_jobs() const override { return 0; }
  std::optional<PendingGpuDemand> min_pending_gpu_demand() const override {
    return std::nullopt;
  }
  const sched::SchedulerEnv& env() const { return env_; }

  core::ContentionEliminator* elim = nullptr;
  std::vector<JobId> pending;
  std::map<JobId, sched::Placement> running;
};

struct World {
  World(const sim::EngineConfig& config,
        const core::EliminatorConfig& elim_config, bool reference)
      : engine(config, &scheduler) {
    if (reference) {
      auto ref = std::make_unique<oracle::ReferenceEliminator>(
          elim_config, &scheduler.env());
      reference_elim = ref.get();
      elim = std::move(ref);
    } else {
      elim = std::make_unique<core::ContentionEliminator>(elim_config,
                                                          &scheduler.env());
    }
    scheduler.elim = elim.get();
  }

  // The engine's no-contention utilization as the eliminator's reference.
  struct EngineExpectation : core::ExpectedUtilSource {
    explicit EngineExpectation(const sim::ClusterEngine* e) : engine(e) {}
    double expected_utilization(JobId job) const override {
      return engine->expected_gpu_utilization(job);
    }
    const sim::ClusterEngine* engine;
  };

  void eliminator_tick() {
    const EngineExpectation expected(&engine);
    if (reference_elim != nullptr) {
      reference_elim->check_all_reference(expected);
    } else {
      elim->check_all(expected);
    }
  }

  std::string engine_state() const {
    state::Writer w;
    engine.save_state(&w);
    return std::string(w.text());
  }
  std::string elim_state() const {
    state::Writer w;
    elim->save_state(&w);
    return std::string(w.text());
  }

  WalkScheduler scheduler;
  sim::ClusterEngine engine;
  std::unique_ptr<core::ContentionEliminator> elim;
  oracle::ReferenceEliminator* reference_elim = nullptr;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

double last_value(const sim::ClusterEngine& engine, const char* series) {
  return engine.metrics().series(series).points().back().value;
}

workload::JobSpec random_job(util::Rng& rng, JobId id) {
  if (rng.bernoulli(0.45)) {
    workload::JobSpec spec;
    spec.id = id;
    spec.kind = workload::JobKind::kGpuTraining;
    spec.model = static_cast<perfmodel::ModelId>(
        rng.uniform_int(0, perfmodel::kModelCount - 1));
    spec.train_config.nodes = rng.bernoulli(0.25) ? 2 : 1;
    spec.train_config.gpus_per_node = static_cast<int>(rng.uniform_int(1, 2));
    spec.requested_cpus = static_cast<int>(rng.uniform_int(1, 6));
    spec.iterations = rng.uniform(200.0, 4000.0);
    if (rng.bernoulli(0.3)) {
      spec.checkpoint_interval_s = 120.0;
      spec.checkpoint_overhead_s = 3.0;
    }
    return spec;
  }
  const int threads = static_cast<int>(rng.uniform_int(2, 16));
  workload::JobSpec spec = workload::make_heat_job(
      workload::HeatParams{threads}, threads * rng.uniform(60.0, 1200.0));
  spec.id = id;
  return spec;
}

// Nodes (distinct, ascending) with room for one leg of `spec`, or empty.
std::vector<NodeId> pick_nodes(util::Rng& rng, const cluster::Cluster& cl,
                               const workload::JobSpec& spec, int cpus) {
  std::vector<NodeId> fits;
  for (const cluster::Node& node : cl.nodes()) {
    if (!node.failed() && node.free_cpus() >= cpus &&
        node.free_gpus() >= spec.gpus_per_node()) {
      fits.push_back(node.id());
    }
  }
  std::vector<NodeId> chosen;
  while (static_cast<int>(chosen.size()) < spec.nodes_needed() &&
         !fits.empty()) {
    const size_t k = static_cast<size_t>(
        rng.uniform_int(0, static_cast<int64_t>(fits.size()) - 1));
    chosen.push_back(fits[k]);
    fits.erase(fits.begin() + static_cast<std::ptrdiff_t>(k));
  }
  if (static_cast<int>(chosen.size()) < spec.nodes_needed()) {
    chosen.clear();
  }
  return chosen;
}

// One random mutation, decided on `a` and applied identically to both.
void random_action(util::Rng& rng, World& a, World& b, JobId* next_id) {
  const double now = a.engine.sim().now();
  const int op = static_cast<int>(rng.uniform_int(0, 9));
  const auto both = [&](auto&& fn) {
    fn(a);
    fn(b);
  };
  if (op <= 3) {
    // Submit a new job (arrival at now), then try to start one pending job.
    const workload::JobSpec spec = random_job(rng, (*next_id)++);
    both([&](World& w) {
      w.engine.inject(spec, now);
      w.engine.run_until(now);
    });
    auto& pending = a.scheduler.pending;
    const size_t k = static_cast<size_t>(
        rng.uniform_int(0, static_cast<int64_t>(pending.size()) - 1));
    const JobId id = pending[k];
    const workload::JobSpec& js = a.engine.records().at(id).spec;
    const int cpus = js.is_gpu_job() ? js.requested_cpus : js.cpu_cores;
    const std::vector<NodeId> nodes =
        pick_nodes(rng, a.engine.cluster(), js, cpus);
    if (nodes.empty()) {
      return;
    }
    sched::Placement p;
    for (NodeId n : nodes) {
      p.nodes.push_back(sched::NodePlacement{n, cpus, js.gpus_per_node()});
    }
    both([&](World& w) {
      ASSERT_TRUE(w.scheduler.env().start_job(id, p).ok());
      auto& pend = w.scheduler.pending;
      pend.erase(pend.begin() + static_cast<std::ptrdiff_t>(k));
      w.scheduler.running[id] = p;
    });
    return;
  }
  auto& running = a.scheduler.running;
  if (op <= 8 && !running.empty()) {
    auto it = running.begin();
    std::advance(it, rng.uniform_int(0, static_cast<int64_t>(running.size()) -
                                            1));
    const JobId id = it->first;
    const sched::Placement p = it->second;
    const NodeId node = p.nodes[static_cast<size_t>(rng.uniform_int(
                                    0, static_cast<int64_t>(p.nodes.size()) -
                                           1))]
                            .node;
    const bool gpu = a.engine.records().at(id).spec.is_gpu_job();
    if (op == 4) {
      const bool keep = rng.bernoulli(0.5);
      both([&](World& w) {
        ASSERT_TRUE(w.scheduler.env().preempt_job(id, keep).ok());
        w.elim->forget_job(id);
        w.scheduler.running.erase(id);
        w.scheduler.pending.push_back(id);
      });
    } else if (op <= 6) {
      const int cpus = static_cast<int>(rng.uniform_int(1, gpu ? 6 : 16));
      both([&](World& w) {
        (void)w.scheduler.env().resize_job(id, node, cpus);
      });
    } else if (!gpu) {
      // MBA cap (fails on non-MBA nodes) or an explicit clear.
      const double cap = rng.uniform(5.0, 60.0);
      const bool clear = rng.bernoulli(0.3);
      both([&](World& w) {
        if (clear) {
          w.scheduler.env().clear_bw_cap(node, id);
        } else {
          (void)w.scheduler.env().set_bw_cap(node, id, cap);
        }
      });
    }
    return;
  }
  // Node failure or recovery.
  const NodeId node = static_cast<NodeId>(
      rng.uniform_int(0, static_cast<int64_t>(a.engine.cluster().node_count()) -
                             1));
  const bool failed = a.engine.cluster().node(node).failed();
  both([&](World& w) {
    if (failed) {
      ASSERT_TRUE(w.engine.recover_node(node).ok());
    } else {
      ASSERT_TRUE(w.engine.fail_node(node).ok());
    }
  });
}

struct WalkTotals {
  core::EliminatorStats stats;
  int metric_ticks = 0;
  int hot_listings = 0;
};

void run_walk(uint64_t seed, bool release, WalkTotals* totals) {
  sim::EngineConfig config;
  config.cluster.node_count = 10;
  config.cluster.mba_fraction = 0.5;
  config.util_noise_stddev = 0.05;
  config.noise_seed = seed * 7919;
  core::EliminatorConfig elim_config;
  elim_config.release_when_calm = release;

  World prod(config, elim_config, /*reference=*/false);
  World ref(config, elim_config, /*reference=*/true);
  util::Rng rng(seed);
  JobId next_id = 1;
  std::vector<NodeId> ids;
  std::vector<double> pressures;
  std::vector<NodeId> want_ids;
  std::vector<double> want_pressures;

  constexpr double kCheckPeriod = 10.0;
  constexpr int kSteps = 360;  // one simulated hour of eliminator ticks
  for (int step = 1; step <= kSteps; ++step) {
    const double t_end = step * kCheckPeriod;
    const int actions = static_cast<int>(rng.uniform_int(0, 3));
    double t = t_end - kCheckPeriod;
    for (int i = 0; i < actions; ++i) {
      t = rng.uniform(t, t_end - 0.5);
      prod.engine.run_until(t);
      ref.engine.run_until(t);
      random_action(rng, prod, ref, &next_id);
      if (testing::Test::HasFatalFailure()) {
        return;
      }
    }
    prod.engine.run_until(t_end);
    ref.engine.run_until(t_end);

    const auto& gpu_series = prod.engine.metrics().series("gpu_util_active");
    if (gpu_series.size() > 0 && gpu_series.points().back().t == t_end) {
      // A metrics tick fired at t_end, the walk's last event there.
      const oracle::TickAggregates want =
          oracle::EngineOracle::aggregates(prod.engine);
      ASSERT_TRUE(same_bits(last_value(prod.engine, "gpu_util_active"),
                            want.gpu_util_active))
          << "seed " << seed << " t " << t_end;
      ASSERT_TRUE(same_bits(last_value(prod.engine, "cpu_util_active"),
                            want.cpu_util_active))
          << "seed " << seed << " t " << t_end;
      ASSERT_TRUE(same_bits(last_value(prod.engine, "mem_pressure_mean"),
                            want.mem_pressure_mean))
          << "seed " << seed << " t " << t_end;
      ++totals->metric_ticks;
    }

    prod.eliminator_tick();
    ref.eliminator_tick();
    const core::EliminatorStats& ps = prod.elim->stats();
    const core::EliminatorStats& rs = ref.elim->stats();
    ASSERT_EQ(ps.checks, rs.checks);
    ASSERT_EQ(ps.nodes_over_threshold, rs.nodes_over_threshold)
        << "seed " << seed << " t " << t_end;
    ASSERT_EQ(ps.mba_throttles, rs.mba_throttles) << "seed " << seed;
    ASSERT_EQ(ps.core_halvings, rs.core_halvings) << "seed " << seed;
    ASSERT_EQ(ps.releases, rs.releases) << "seed " << seed;
    ASSERT_EQ(prod.elim_state(), ref.elim_state())
        << "seed " << seed << " t " << t_end;
    ASSERT_EQ(prod.engine_state(), ref.engine_state())
        << "seed " << seed << " t " << t_end;

    prod.engine.pressure_screen(prod.engine.cluster().node_count(), &ids,
                                &pressures);
    oracle::EngineOracle::screen(prod.engine, elim_config.bw_threshold,
                                 &want_ids, &want_pressures);
    ASSERT_EQ(ids, want_ids) << "seed " << seed << " t " << t_end;
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE(same_bits(pressures[i], want_pressures[i]));
    }
    totals->hot_listings += static_cast<int>(ids.size());
  }
  const core::EliminatorStats& s = prod.elim->stats();
  totals->stats.checks += s.checks;
  totals->stats.nodes_over_threshold += s.nodes_over_threshold;
  totals->stats.mba_throttles += s.mba_throttles;
  totals->stats.core_halvings += s.core_halvings;
  totals->stats.releases += s.releases;
}

// ---------------------------------------------- metrics ledger scenario

workload::JobSpec ledger_gpu_job(JobId id, perfmodel::ModelId model,
                                 int nodes, int gpus_per_node) {
  workload::JobSpec spec;
  spec.id = id;
  spec.kind = workload::JobKind::kGpuTraining;
  spec.model = model;
  spec.train_config.nodes = nodes;
  spec.train_config.gpus_per_node = gpus_per_node;
  spec.iterations = 1e9;  // outlives the scenario
  return spec;
}

workload::JobSpec ledger_cpu_job(JobId id, int threads) {
  workload::JobSpec spec =
      workload::make_heat_job(workload::HeatParams{threads}, 1e9);
  spec.id = id;
  return spec;
}

sched::Placement legs(std::initializer_list<sched::NodePlacement> nodes) {
  sched::Placement p;
  p.nodes.assign(nodes.begin(), nodes.end());
  return p;
}

TEST(MetricsLedger, TombstonesRestartsResizesAndCompactionMatchTheScan) {
  // The ledger's edge cases, each followed by a metrics tick whose values
  // must equal the oracle's id-ordered scan bit for bit: a job stopped and
  // restarted between two ticks (its tombstones partly reused by a smaller
  // id, the rest left behind its new live rows), a leg resized while the
  // job's rate stays put (its row must still be rewritten), and enough
  // stops to make the tick compact the tombstones. Ids are injected out of
  // order, and the scenario is checked to be order-sensitive: summing in
  // slot (injection) order gives different bits on some tick.
  sim::EngineConfig config;
  config.cluster.node_count = 6;
  World w(config, core::EliminatorConfig{}, /*reference=*/false);
  sim::ClusterEngine& engine = w.engine;
  const sched::SchedulerEnv& env = w.scheduler.env();
  using perfmodel::ModelId;

  const std::vector<workload::JobSpec> jobs = {
      ledger_gpu_job(40, ModelId::kResnet50, 2, 1),
      ledger_gpu_job(12, ModelId::kVgg16, 1, 2),
      ledger_cpu_job(31, 6),
      ledger_gpu_job(7, ModelId::kInceptionV3, 1, 1),
      ledger_cpu_job(25, 8),
      ledger_gpu_job(18, ModelId::kAlexnet, 1, 1),
      ledger_cpu_job(35, 4),
      ledger_cpu_job(3, 5),
      ledger_gpu_job(22, ModelId::kDeepSpeech, 1, 1),
  };
  const std::map<JobId, sched::Placement> placements = {
      {40, legs({{0, 2, 1}, {1, 4, 1}})},
      {12, legs({{2, 3, 2}})},
      {31, legs({{2, 6, 0}})},
      {7, legs({{3, 5, 1}})},
      {25, legs({{3, 8, 0}})},
      {18, legs({{4, 4, 1}})},
      {35, legs({{0, 4, 0}})},
      {3, legs({{5, 5, 0}})},
      {22, legs({{5, 2, 1}})},
  };
  const auto start = [&](JobId id) {
    ASSERT_TRUE(env.start_job(id, placements.at(id)).ok()) << id;
  };

  for (const workload::JobSpec& spec : jobs) {
    engine.inject(spec, 1.0);
  }
  engine.run_until(1.0);
  for (const workload::JobSpec& spec : jobs) {
    if (spec.id != 35) {
      start(spec.id);
    }
  }

  int order_sensitive_ticks = 0;
  const auto check_tick = [&](double t) {
    engine.run_until(t);
    ASSERT_EQ(engine.metrics().series("gpu_util_active").points().back().t,
              t);
    const oracle::TickAggregates want =
        oracle::EngineOracle::aggregates(engine);
    EXPECT_TRUE(same_bits(last_value(engine, "gpu_util_active"),
                          want.gpu_util_active))
        << "t " << t;
    EXPECT_TRUE(same_bits(last_value(engine, "cpu_util_active"),
                          want.cpu_util_active))
        << "t " << t;
    EXPECT_TRUE(same_bits(last_value(engine, "mem_pressure_mean"),
                          want.mem_pressure_mean))
        << "t " << t;
    const oracle::TickAggregates by_slot = oracle::EngineOracle::aggregates(
        engine, oracle::EngineOracle::JobOrder::kSlot);
    if (!same_bits(by_slot.gpu_util_active, want.gpu_util_active) ||
        !same_bits(by_slot.cpu_util_active, want.cpu_util_active)) {
      ++order_sensitive_ticks;
    }
  };
  check_tick(60.0);

  // Stop and restart job 40 (two legs) between ticks. Job 35 starts in
  // between and takes one of 40's tombstones; 40's new live rows go in
  // front of the other.
  engine.run_until(70.0);
  ASSERT_TRUE(env.preempt_job(40, /*keep_progress=*/true).ok());
  engine.run_until(72.0);
  start(35);
  engine.run_until(75.0);
  start(40);
  engine.run_until(76.0);
  EXPECT_EQ(oracle::EngineOracle::ledger_counts(engine).dead, 1u);
  check_tick(120.0);

  // Grow 40's faster leg: leg 0 still gates, so the rate keeps its bits
  // (the finish event is left alone), but leg 1's cores and busy-core term
  // move, and the tick must see them.
  engine.run_until(130.0);
  const sim::ClusterEngine::EngineStats before = engine.engine_stats();
  ASSERT_TRUE(env.resize_job(40, 1, 6).ok());
  engine.run_until(130.0);  // flushes the dirty node
  EXPECT_EQ(engine.engine_stats().reschedules, before.reschedules);
  EXPECT_EQ(engine.engine_stats().reschedules_skipped,
            before.reschedules_skipped + 1);
  check_tick(180.0);

  // Stop four one-leg jobs: tombstones pass a quarter of the ledger, and
  // the next tick sums and compacts in one pass.
  engine.run_until(190.0);
  for (const JobId id : {12, 31, 7, 25}) {
    ASSERT_TRUE(env.preempt_job(id, /*keep_progress=*/false).ok()) << id;
  }
  engine.run_until(191.0);
  const oracle::EngineOracle::LedgerCounts full =
      oracle::EngineOracle::ledger_counts(engine);
  EXPECT_GE(full.dead * 4, full.rows);
  check_tick(240.0);
  const oracle::EngineOracle::LedgerCounts compacted =
      oracle::EngineOracle::ledger_counts(engine);
  EXPECT_EQ(compacted.dead, 0u);
  EXPECT_EQ(compacted.rows, full.rows - full.dead);
  // After compaction the restarted and resized rows keep matching.
  ASSERT_TRUE(env.resize_job(40, 1, 3).ok());
  check_tick(300.0);

  EXPECT_GT(order_sensitive_ticks, 0);
}

class TickOracleWalk : public testing::TestWithParam<bool> {};

TEST_P(TickOracleWalk, IncrementalTicksMatchReferenceScans) {
  const bool release = GetParam();
  WalkTotals totals;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    run_walk(seed, release, &totals);
    if (HasFatalFailure()) {
      return;
    }
  }
  // The walk must actually reach the paths under test.
  EXPECT_GT(totals.metric_ticks, 200);
  EXPECT_GT(totals.hot_listings, 0);
  EXPECT_GT(totals.stats.nodes_over_threshold, 0);
  EXPECT_GT(totals.stats.mba_throttles, 0);
  EXPECT_GT(totals.stats.core_halvings, 0);
  if (release) {
    EXPECT_GT(totals.stats.releases, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(ReleaseModes, TickOracleWalk, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("ReleaseOn")
                                             : std::string("ReleaseOff");
                         });

}  // namespace
}  // namespace coda
