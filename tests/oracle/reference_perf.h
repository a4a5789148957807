// Reference (unmemoized) training-performance model.
//
// The original arithmetic of perfmodel::TrainPerf, evaluated from scratch
// on every call: no interned invariants, no evaluation memo, and the
// saturation knee found by a linear scan instead of the closed form. The
// production model replays exactly these expression chains from its caches,
// so tests hold it to bit-identical results against this class. Stateless;
// the public API mirrors TrainPerf's evaluation methods.
#pragma once

#include "perfmodel/train_perf.h"

namespace coda::oracle {

class ReferencePerf {
 public:
  using ContentionFactors = perfmodel::ContentionFactors;
  using ModelId = perfmodel::ModelId;
  using TrainConfig = perfmodel::TrainConfig;

  double prep_time(ModelId id, const TrainConfig& cfg, int cores,
                   const ContentionFactors& contention = {}) const;
  double gpu_phase_time(ModelId id, const TrainConfig& cfg,
                        const ContentionFactors& contention = {}) const;
  double iter_time(ModelId id, const TrainConfig& cfg, int cores,
                   const ContentionFactors& contention = {}) const;
  double gpu_utilization(ModelId id, const TrainConfig& cfg, int cores,
                         const ContentionFactors& contention = {}) const;
  double throughput(ModelId id, const TrainConfig& cfg, int cores,
                    const ContentionFactors& contention = {}) const;
  double samples_per_second(ModelId id, const TrainConfig& cfg, int cores,
                            const ContentionFactors& contention = {}) const;
  double mem_bw_demand_gbps(ModelId id, const TrainConfig& cfg,
                            int cores) const;
  double pcie_demand_gbps(ModelId id, const TrainConfig& cfg,
                          int cores) const;
  double llc_demand_mb(ModelId id, const TrainConfig& cfg) const;
  int optimal_cores(ModelId id, const TrainConfig& cfg, int max_cores = 28,
                    double tolerance = 0.01) const;

  // Smallest core count in 1..max_cores whose prep stage fits under the GPU
  // phase (max_cores when none does): the knee, by linear scan.
  int saturation_cores(ModelId id, const TrainConfig& cfg,
                       const ContentionFactors& contention,
                       int max_cores) const;

 private:
  // Per-GPU demand `per_gpu_base` scaled by batch size and by the achieved
  // iteration rate relative to the optimal allocation.
  double rate_scaled_demand(ModelId id, const TrainConfig& cfg, int cores,
                            double per_gpu_base) const;
};

}  // namespace coda::oracle
