// Tests for the real-time contention eliminator (Sec. V-D), driven through
// the real engine so MBM samples and MBA caps are live.
#include <gtest/gtest.h>

#include "coda/eliminator.h"
#include "sim/engine.h"
#include "workload/heat.h"

namespace coda::core {
namespace {

using perfmodel::ModelId;

class ProbeScheduler : public sched::Scheduler {
 public:
  const char* name() const override { return "probe"; }
  void submit(const workload::JobSpec&) override {}
  void on_job_finished(const workload::JobSpec&) override {}
  void kick() override {}
  void on_job_evicted(const workload::JobSpec& spec) override {
    evicted.push_back(spec.id);
  }
  size_t pending_jobs() const override { return 0; }
  size_t pending_gpu_jobs() const override { return 0; }
  std::optional<PendingGpuDemand> min_pending_gpu_demand() const override {
    return std::nullopt;
  }
  std::vector<cluster::JobId> evicted;
  sched::SchedulerEnv& env() { return env_; }
};

struct Rig : ExpectedUtilSource {
  explicit Rig(bool mba_capable, bool record_events = false)
      : probe(), engine(make_config(mba_capable, record_events), &probe) {}

  static sim::EngineConfig make_config(bool mba_capable, bool record_events) {
    sim::EngineConfig cfg;
    cfg.cluster.node_count = 1;
    cfg.cluster.mba_fraction = mba_capable ? 1.0 : 0.0;
    cfg.record_events = record_events;
    return cfg;
  }

  // Places a latency-sensitive GPU job and a HEAT hog on node 0. The hog
  // pushes the node past the 75% threshold and the GPU job's utilization
  // below expectation.
  void place_contended_pair(int heat_threads = 16) {
    workload::JobSpec gpu;
    gpu.id = 1;
    gpu.kind = workload::JobKind::kGpuTraining;
    gpu.model = ModelId::kTransformer;
    gpu.iterations = 1e9;
    engine.inject(gpu, 0.0);
    auto hog = workload::make_heat_job(workload::HeatParams{heat_threads}, 1e9);
    hog.id = 2;
    engine.inject(hog, 0.0);
    engine.run_until(0.0);
    sched::Placement p1;
    p1.nodes.push_back(sched::NodePlacement{0, 2, 1});
    ASSERT_TRUE(probe.env().start_job(1, p1).ok());
    sched::Placement p2;
    p2.nodes.push_back(sched::NodePlacement{0, heat_threads, 0});
    ASSERT_TRUE(probe.env().start_job(2, p2).ok());
    engine.run_until(1.0);
  }

  double expected_util(cluster::JobId job) const {
    return engine.expected_gpu_utilization(job);
  }
  double expected_utilization(cluster::JobId job) const override {
    return expected_util(job);
  }

  ProbeScheduler probe;
  sim::ClusterEngine engine;
};

TEST(Eliminator, ThrottlesWithMbaWhenAvailable) {
  Rig rig(/*mba_capable=*/true);
  rig.place_contended_pair();
  const double before = rig.engine.gpu_utilization(1);
  EXPECT_LT(before, rig.expected_util(1) * 0.97);  // genuinely suffering

  ContentionEliminator elim(EliminatorConfig{}, &rig.probe.env());
  elim.check_all(rig);
  EXPECT_EQ(elim.stats().mba_throttles, 1);
  EXPECT_EQ(elim.stats().core_halvings, 0);
  rig.engine.run_until(2.0);
  EXPECT_GT(rig.engine.gpu_utilization(1), before);
}

TEST(Eliminator, HalvesCoresWithoutMba) {
  Rig rig(/*mba_capable=*/false);
  rig.place_contended_pair();
  ContentionEliminator elim(EliminatorConfig{}, &rig.probe.env());
  elim.check_all(rig);
  EXPECT_EQ(elim.stats().mba_throttles, 0);
  EXPECT_EQ(elim.stats().core_halvings, 1);
  // The CPU job now holds half the cores.
  EXPECT_EQ(rig.engine.cluster().node(0).allocation_of(2)->cpus, 8);
}

TEST(Eliminator, ResizeCallbackFires) {
  Rig rig(/*mba_capable=*/false);
  rig.place_contended_pair();
  cluster::JobId resized = 0;
  int new_cores = 0;
  ContentionEliminator elim(
      EliminatorConfig{}, &rig.probe.env(),
      [&](cluster::JobId job, cluster::NodeId, int cores) {
        resized = job;
        new_cores = cores;
      });
  elim.check_all(rig);
  EXPECT_EQ(resized, 2u);
  EXPECT_EQ(new_cores, 8);
}

TEST(Eliminator, IdleNodeBelowThresholdUntouched) {
  Rig rig(/*mba_capable=*/true);
  rig.place_contended_pair(/*heat_threads=*/4);  // 32 GB/s, far below 75%
  ContentionEliminator elim(EliminatorConfig{}, &rig.probe.env());
  elim.check_all(rig);
  EXPECT_EQ(elim.stats().mba_throttles, 0);
  EXPECT_EQ(elim.stats().core_halvings, 0);
  EXPECT_EQ(elim.stats().nodes_over_threshold, 0);
}

TEST(Eliminator, NoActionWithoutGpuUtilizationDrop) {
  // Pressure above threshold but the co-located GPU job is insensitive:
  // the eliminator must leave the CPU job alone (Sec. V-D requires both
  // conditions).
  Rig rig(/*mba_capable=*/true);
  workload::JobSpec gpu;
  gpu.id = 1;
  gpu.kind = workload::JobKind::kGpuTraining;
  gpu.model = ModelId::kInceptionV3;  // near-insensitive to contention
  gpu.iterations = 1e9;
  rig.engine.inject(gpu, 0.0);
  auto hog = workload::make_heat_job(workload::HeatParams{15}, 1e9);
  hog.id = 2;
  rig.engine.inject(hog, 0.0);
  rig.engine.run_until(0.0);
  sched::Placement p1;
  p1.nodes.push_back(sched::NodePlacement{0, 2, 1});
  ASSERT_TRUE(rig.probe.env().start_job(1, p1).ok());
  sched::Placement p2;
  p2.nodes.push_back(sched::NodePlacement{0, 15, 0});
  ASSERT_TRUE(rig.probe.env().start_job(2, p2).ok());
  rig.engine.run_until(1.0);

  // 15 x 8 = 120 GB/s > 112.5 threshold, but Inception's util barely moves.
  EXPECT_GT(rig.probe.env().bandwidth->sample(0).pressure(), 0.75);
  ContentionEliminator elim(EliminatorConfig{}, &rig.probe.env());
  elim.check_all(rig);
  EXPECT_EQ(elim.stats().mba_throttles, 0);
  EXPECT_EQ(elim.stats().core_halvings, 0);
}

TEST(Eliminator, UserFacingInferenceIsNeverThrottled) {
  // Two equal bandwidth hogs beside a sensitive trainer; the user-facing
  // one must be spared (Sec. V-A) and the other throttled.
  Rig rig(/*mba_capable=*/true);
  workload::JobSpec gpu;
  gpu.id = 1;
  gpu.kind = workload::JobKind::kGpuTraining;
  gpu.model = ModelId::kTransformer;
  gpu.iterations = 1e9;
  rig.engine.inject(gpu, 0.0);
  auto inference = workload::make_heat_job(workload::HeatParams{8}, 1e9);
  inference.id = 2;
  inference.user_facing = true;
  rig.engine.inject(inference, 0.0);
  auto batch = workload::make_heat_job(workload::HeatParams{8}, 1e9);
  batch.id = 3;
  rig.engine.inject(batch, 0.0);
  rig.engine.run_until(0.0);
  sched::Placement p1;
  p1.nodes.push_back(sched::NodePlacement{0, 2, 1});
  ASSERT_TRUE(rig.probe.env().start_job(1, p1).ok());
  for (cluster::JobId id : {2, 3}) {
    sched::Placement p;
    p.nodes.push_back(sched::NodePlacement{0, 8, 0});
    ASSERT_TRUE(rig.probe.env().start_job(id, p).ok());
  }
  rig.engine.run_until(1.0);

  ContentionEliminator elim(
      EliminatorConfig{}, &rig.probe.env(), nullptr,
      [](cluster::JobId job) { return job == 2; });
  elim.check_all(rig);
  EXPECT_GE(elim.stats().mba_throttles, 1);
  // Only the batch hog was capped; clearing job 3's caps restores pressure,
  // proving job 2 holds none.
  rig.probe.env().clear_bw_cap(0, 3);
  const auto sample = rig.probe.env().bandwidth->sample(0);
  EXPECT_GT(sample.pressure(), 0.75);
}

TEST(Eliminator, ReleaseRestoresCapsWhenPressureSubsides) {
  // Extension (release_when_calm): a cap set while a second hog was active
  // is released after that hog leaves and pressure stays safely low.
  Rig rig(/*mba_capable=*/true);
  rig.place_contended_pair(/*heat_threads=*/10);  // 80 GB/s
  auto second = workload::make_heat_job(workload::HeatParams{10}, 1e9);
  second.id = 3;
  rig.engine.inject(second, 1.0);
  rig.engine.run_until(1.0);
  sched::Placement p;
  p.nodes.push_back(sched::NodePlacement{0, 10, 0});
  ASSERT_TRUE(rig.probe.env().start_job(3, p).ok());
  rig.engine.run_until(2.0);

  EliminatorConfig cfg;
  cfg.release_when_calm = true;
  ContentionEliminator elim(cfg, &rig.probe.env());
  elim.check_all(rig);
  ASSERT_GE(elim.stats().mba_throttles, 1);

  // The second hog leaves; pressure collapses; caps come off.
  ASSERT_TRUE(rig.probe.env().preempt_job(3, false).ok());
  rig.engine.run_until(3.0);
  elim.check_all(rig);
  EXPECT_GE(elim.stats().releases, 1);
  rig.engine.run_until(4.0);
  // The surviving hog runs unthrottled again (~80 GB/s + trainer).
  EXPECT_GT(rig.probe.env().bandwidth->sample(0).total_gbps, 75.0);
}

TEST(Eliminator, ReleaseGuardsAgainstOscillation) {
  // A single over-threshold hog: releasing its cap would immediately push
  // the node back over the trigger, so the guard must keep it throttled.
  Rig rig(/*mba_capable=*/true);
  rig.place_contended_pair(/*heat_threads=*/16);  // 128 GB/s -> 0.87
  EliminatorConfig cfg;
  cfg.release_when_calm = true;
  ContentionEliminator elim(cfg, &rig.probe.env());
  elim.check_all(rig);
  ASSERT_EQ(elim.stats().mba_throttles, 1);
  // Pressure is now ~0.44, below the release threshold — but restoring
  // would bounce straight back over 0.75.
  for (int i = 0; i < 5; ++i) {
    rig.engine.run_until(2.0 + i);
    elim.check_all(rig);
  }
  EXPECT_EQ(elim.stats().releases, 0);
  EXPECT_EQ(elim.stats().mba_throttles, 1);  // no re-throttle churn either
}

TEST(Eliminator, ForgetJobClearsLiveMbaCap) {
  // A scheduler abort bypasses the engine's stop path from the eliminator's
  // point of view: forget_job must drop the throttle record AND the cap, or
  // the cap would shadow the job's next run.
  Rig rig(/*mba_capable=*/true);
  rig.place_contended_pair();
  ContentionEliminator elim(EliminatorConfig{}, &rig.probe.env());
  elim.check_all(rig);
  ASSERT_EQ(elim.stats().mba_throttles, 1);
  ASSERT_TRUE(elim.is_throttled(2));

  elim.forget_job(2);
  EXPECT_FALSE(elim.is_throttled(2));
  rig.engine.run_until(2.0);
  // The cap is gone: the hog's full traffic returns.
  EXPECT_GT(rig.probe.env().bandwidth->sample(0).pressure(), 0.75);
}

TEST(Eliminator, ForgetAfterEngineStopEmitsNoSpuriousClear) {
  // When the job already left through an engine stop path (finish, failure
  // eviction), the engine cleared its caps; forget_job must only drop the
  // record, not emit a second bw_cap_clear event.
  Rig rig(/*mba_capable=*/true, /*record_events=*/true);
  rig.place_contended_pair();
  ContentionEliminator elim(EliminatorConfig{}, &rig.probe.env());
  elim.check_all(rig);
  ASSERT_TRUE(elim.is_throttled(2));

  ASSERT_TRUE(rig.probe.env().preempt_job(2, /*keep_progress=*/false).ok());
  // The engine dropped the cap internally (no clear event); forgetting the
  // job afterwards must not fabricate one.
  const auto& log = rig.engine.event_log();
  ASSERT_EQ(log.count(sim::EventKind::kBwCap), 1u);
  ASSERT_EQ(log.count(sim::EventKind::kBwCapClear), 0u);
  elim.forget_job(2);
  EXPECT_FALSE(elim.is_throttled(2));
  EXPECT_EQ(log.count(sim::EventKind::kBwCapClear), 0u);
}

TEST(Eliminator, ReleaseProjectionScalesHalvedCoresBack) {
  // Core-halving path: the achieved bandwidth is measured on HALVED cores.
  // The release projection must scale it back by original/current cores;
  // an unscaled projection (40/150 here) would sit below the 0.75 trigger
  // and release a job whose restored traffic (x2) bounces the node over.
  Rig rig(/*mba_capable=*/false);
  rig.place_contended_pair(/*heat_threads=*/10);  // 80 GB/s hog (job 2)
  auto second = workload::make_heat_job(workload::HeatParams{10}, 1e9);
  second.id = 3;
  rig.engine.inject(second, 1.0);
  rig.engine.run_until(1.0);
  sched::Placement p;
  p.nodes.push_back(sched::NodePlacement{0, 10, 0});
  ASSERT_TRUE(rig.probe.env().start_job(3, p).ok());
  rig.engine.run_until(2.0);

  EliminatorConfig cfg;
  cfg.release_when_calm = true;
  ContentionEliminator elim(cfg, &rig.probe.env());
  // 80 + 80 + trainer >> 112.5: both hogs are halved to 5 cores.
  elim.check_all(rig);
  ASSERT_EQ(elim.stats().core_halvings, 2);
  ASSERT_EQ(rig.engine.cluster().node(0).allocation_of(2)->cpus, 5);

  // The second hog leaves; pressure drops to ~(40 + trainer)/150 < 0.55,
  // so the release pass runs — but restoring job 2 to 10 cores would add
  // ~2 x 40/150 and cross the 0.75 trigger again, so it must stay halved.
  ASSERT_TRUE(rig.probe.env().preempt_job(3, false).ok());
  rig.engine.run_until(3.0);
  elim.check_all(rig);
  EXPECT_EQ(elim.stats().releases, 0);
  EXPECT_TRUE(elim.is_throttled(2));
  EXPECT_EQ(rig.engine.cluster().node(0).allocation_of(2)->cpus, 5);
}

TEST(Eliminator, DisabledDoesNothing) {
  Rig rig(/*mba_capable=*/true);
  rig.place_contended_pair();
  EliminatorConfig cfg;
  cfg.enabled = false;
  ContentionEliminator elim(cfg, &rig.probe.env());
  elim.check_all(rig);
  EXPECT_EQ(elim.stats().checks, 0);
  EXPECT_EQ(elim.stats().mba_throttles, 0);
}

TEST(Eliminator, DnnJobsAreNeverThrottled) {
  // Two GPU jobs alone can exceed the threshold in principle; the
  // eliminator must not touch them (only CPU jobs are throttled).
  Rig rig(/*mba_capable=*/true);
  rig.place_contended_pair();
  ContentionEliminator elim(EliminatorConfig{}, &rig.probe.env());
  elim.check_all(rig);
  // The GPU job's core allocation is untouched.
  EXPECT_EQ(rig.engine.cluster().node(0).allocation_of(1)->cpus, 2);
}

}  // namespace
}  // namespace coda::core
