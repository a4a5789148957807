// Reference implementations of the engine's periodic ticks.
//
// Production keeps the tick aggregates incrementally: the eliminator walks
// a maintained hot-node set, and the metrics tick sums a job-ordered
// ledger (see DESIGN.md). The scans here are the from-scratch versions
// those structures replaced — every occupied node probed live, every
// running job walked in id order — so tests can hold the incremental
// ticks to bit-identical results.
#pragma once

#include <vector>

#include "coda/eliminator.h"
#include "sim/engine.h"

namespace coda::oracle {

// The eliminator pass as a scan of every occupied node in id order, each
// with a live pressure probe before its check and before its release.
class ReferenceEliminator : public core::ContentionEliminator {
 public:
  using ContentionEliminator::ContentionEliminator;

  void check_all_reference(const core::ExpectedUtilSource& expected);
};

// The three metrics-tick series values that depend on running jobs and
// node reports.
struct TickAggregates {
  double gpu_util_active = 0.0;
  double cpu_util_active = 0.0;
  double mem_pressure_mean = 0.0;
};

class EngineOracle {
 public:
  // The order aggregates() walks running jobs in: ascending id (what the
  // metrics tick must reproduce), or the engine's slot order (injection
  // order), which tests use to show a scenario is sensitive to the order.
  enum class JobOrder { kId, kSlot };

  // Syncs, then walks the running jobs in `order` (prep times from an
  // independent perf model) and the occupied nodes' reports in id order.
  static TickAggregates aggregates(const sim::ClusterEngine& engine,
                                   JobOrder order = JobOrder::kId);

  // Rows and tombstoned rows currently in the engine's metrics ledger.
  struct LedgerCounts {
    size_t rows = 0;
    size_t dead = 0;
  };
  static LedgerCounts ledger_counts(const sim::ClusterEngine& engine);

  // Runs the engine's metrics tick now — a test that takes over the tick's
  // handler calls this to sample, then inspects the state it sampled.
  static void sample_metrics(sim::ClusterEngine& engine);

  // Syncs, then lists every occupied node whose report-summed pressure is
  // at or above `floor`, in id order, with that pressure.
  static void screen(const sim::ClusterEngine& engine, double floor,
                     std::vector<cluster::NodeId>* ids,
                     std::vector<double>* pressures);
};

}  // namespace coda::oracle
