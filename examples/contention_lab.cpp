// contention_lab: an interactive-style tour of the CPU-side contention
// machinery (Sec. IV-C and V-D). Co-locates a chosen DNN model with the
// HEAT bandwidth antagonist on one node, sweeps the pressure, and then lets
// the contention eliminator step in — printing the model's utilization, the
// node's MBM view and the MBA/core-halving actions.
//
//   $ ./examples/contention_lab [model]      (default: Transformer)
#include <cstdio>
#include <cstring>

#include "coda/eliminator.h"
#include "sim/engine.h"
#include "workload/heat.h"

using namespace coda;

namespace {

// Minimal scheduler: this lab drives the engine callbacks directly.
class ManualScheduler : public sched::Scheduler {
 public:
  const char* name() const override { return "manual"; }
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

}  // namespace

int main(int argc, char** argv) {
  perfmodel::ModelId model = perfmodel::ModelId::kTransformer;
  if (argc > 1) {
    bool found = false;
    for (perfmodel::ModelId m : perfmodel::kAllModels) {
      if (std::strcmp(argv[1], perfmodel::to_string(m)) == 0) {
        model = m;
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown model '%s'\n", argv[1]);
      return 1;
    }
  }

  sim::EngineConfig config;
  config.cluster.node_count = 1;
  config.cluster.mba_fraction = 1.0;  // MBA available: watch caps, not halving
  ManualScheduler manual;
  sim::ClusterEngine engine(config, &manual);

  perfmodel::TrainPerf perf;
  const int opt = perf.optimal_cores(model, {1, 1, 0});
  std::printf("=== contention lab: %s (1N1G, %d cores = optimal) ===\n\n",
              perfmodel::to_string(model), opt);

  workload::JobSpec train;
  train.id = 1;
  train.kind = workload::JobKind::kGpuTraining;
  train.model = model;
  train.iterations = 1e9;
  engine.inject(train, 0.0);
  engine.run_until(0.0);
  sched::Placement p;
  p.nodes.push_back(sched::NodePlacement{0, opt, 1});
  if (!manual.env().start_job(1, p).ok()) {
    return 1;
  }
  engine.run_until(1.0);
  const double solo = engine.gpu_utilization(1);
  std::printf("solo GPU utilization: %.1f%%\n\n", 100 * solo);

  std::printf("%-12s %-14s %-14s %-12s\n", "HEAT threads", "node BW (GB/s)",
              "pressure", "GPU util");
  double t = 1.0;
  cluster::JobId next_id = 2;
  for (int threads : {4, 8, 12, 16}) {
    auto hog = workload::make_heat_job(workload::HeatParams{threads}, 1e9);
    hog.id = next_id;
    engine.inject(hog, t);
    engine.run_until(t);
    sched::Placement hp;
    hp.nodes.push_back(sched::NodePlacement{0, threads, 0});
    (void)manual.env().start_job(next_id, hp);
    t += 1.0;
    engine.run_until(t);
    const auto sample = engine.sample(0);
    std::printf("%-12d %-14.1f %-14.2f %.1f%%\n", threads, sample.total_gbps,
                sample.pressure(), 100 * engine.gpu_utilization(1));
    (void)manual.env().preempt_job(next_id, false);
    ++next_id;
    t += 1.0;
    engine.run_until(t);
  }

  // Now leave a big hog running and let the eliminator handle it.
  std::printf("\n--- eliminator engages (threshold %.0f%% of %g GB/s) ---\n",
              100 * core::EliminatorConfig{}.bw_threshold,
              engine.cluster().node(0).config().mem_bw_gbps);
  auto hog = workload::make_heat_job(workload::HeatParams{16}, 1e9);
  hog.id = next_id;
  engine.inject(hog, t);
  engine.run_until(t);
  sched::Placement hp;
  hp.nodes.push_back(sched::NodePlacement{0, 16, 0});
  (void)manual.env().start_job(next_id, hp);
  engine.run_until(t + 1.0);
  std::printf("under contention: util %.1f%% (expected %.1f%%)\n",
              100 * engine.gpu_utilization(1),
              100 * engine.expected_gpu_utilization(1));

  // The engine's no-contention utilization is the eliminator's reference.
  struct EngineExpectation : core::ExpectedUtilSource {
    explicit EngineExpectation(const sim::ClusterEngine* e) : engine(e) {}
    double expected_utilization(cluster::JobId job) const override {
      return engine->expected_gpu_utilization(job);
    }
    const sim::ClusterEngine* engine;
  };
  core::ContentionEliminator eliminator(core::EliminatorConfig{},
                                        &manual.env());
  eliminator.check_all(EngineExpectation(&engine));
  engine.run_until(t + 2.0);
  std::printf("after eliminator: util %.1f%% | MBA throttles %d, halvings %d\n",
              100 * engine.gpu_utilization(1),
              eliminator.stats().mba_throttles,
              eliminator.stats().core_halvings);
  const auto sample = engine.sample(0);
  std::printf("node bandwidth now %.1f GB/s (pressure %.2f)\n",
              sample.total_gbps, sample.pressure());
  return 0;
}
