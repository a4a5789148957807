// Reference implementations of the placement queries.
//
// Production answers every placement query from the cluster's placement
// index (src/cluster/placement_index.h): best fit over an id range,
// capacity counts, eviction candidates, the CODA CPU array's best fit and
// the fragmentation sums. The linear scans here are the from-scratch
// versions the index replaced — every node visited in id order, straight
// from its free counts — so tests can hold each indexed query to
// identical answers.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "cluster/cluster.h"
#include "coda/coda_scheduler.h"
#include "sched/placement.h"

namespace coda::oracle {

// Answers queries on the node state captured at construction; build a new
// one after the cluster changes. Capturing once lets a test run many scans
// over the same state without re-reading every node for each.
class PlacementOracle {
 public:
  static constexpr cluster::NodeId kNone = cluster::PlacementIndex::kNone;

  // A node's CPU-array budget: the cores a CPU job may take on it without
  // borrowing from the GPU reservation.
  using CpuBudget = std::function<int(const cluster::Node&)>;

  // Budget = free cores (no reservation).
  explicit PlacementOracle(const cluster::Cluster& cluster);
  PlacementOracle(const cluster::Cluster& cluster, const CpuBudget& budget);
  // Budget = the scheduler's own cpu_array_free_cores.
  PlacementOracle(const cluster::Cluster& cluster,
                  const core::CodaScheduler& coda);

  // sched::find_placement: ranks every in-range node that fits one leg by
  // (free GPUs after, free cores after, id) and takes the best `nodes`.
  std::optional<sched::Placement> find_placement(
      const sched::PlacementRequest& request, sched::IdRange range = {}) const;

  // sched::count_feasible: each in-range node hosts floor(free / need)
  // legs; the total in groups of `nodes`, capped at `limit`.
  int count_feasible(const sched::PlacementRequest& request,
                     sched::IdRange range, int limit) const;

  // sched::eviction_candidates: in-range nodes with enough free GPUs for a
  // leg but too few free cores, in id order.
  std::vector<cluster::NodeId> eviction_candidates(
      const sched::PlacementRequest& request, sched::IdRange range) const;

  // The CODA CPU array's pick for a `cpus`-core job: the lowest
  // (budget, id) node with budget >= cpus; only when there is none and
  // borrowing is allowed, the lowest (free cores, id) node with free cores
  // >= cpus, which then borrows reserved cores.
  struct CpuFit {
    cluster::NodeId node = kNone;
    bool borrows = false;
    bool operator==(const CpuFit&) const = default;
  };
  CpuFit cpu_array_best_fit(int cpus, bool may_borrow) const;

  // The fragmentation numerators (Sec. VI-C) for the easiest pending GPU
  // shape: idle GPUs on nodes with enough of them whose free plus
  // reclaimable cores fall short (case 1), and idle GPUs on nodes with too
  // few (case 2).
  struct Fragmentation {
    long long cpu_starved = 0;
    long long adjacency = 0;
  };
  Fragmentation fragmentation(
      const sched::Scheduler::PendingGpuDemand& demand,
      const std::function<int(cluster::NodeId)>& reclaimable_cpus) const;

  // CodaScheduler internals the checks compare against.
  static int cpu_array_free_cores(const core::CodaScheduler& coda,
                                  const cluster::Node& node);
  // The id ranges CODA's GPU placements search: every node or, with the
  // multi-array split on, the 4-GPU array [0, split) and the rest.
  static std::vector<sched::IdRange> gpu_ranges(
      const core::CodaScheduler& coda);

 private:
  struct NodeState {
    cluster::NodeId id = 0;
    bool failed = false;
    int free_gpus = 0;
    int free_cpus = 0;
    int budget = 0;

    bool can_fit(int cpus, int gpus) const {
      return !failed && cpus <= free_cpus && gpus <= free_gpus;
    }
  };

  // The nodes with ids in `range`, in id order.
  std::span<const NodeState> in(sched::IdRange range) const;

  std::vector<NodeState> nodes_;  // indexed by id
};

}  // namespace coda::oracle
