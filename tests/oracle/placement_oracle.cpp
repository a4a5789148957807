#include "oracle/placement_oracle.h"

#include <algorithm>

namespace coda::oracle {

PlacementOracle::PlacementOracle(const cluster::Cluster& cluster)
    : PlacementOracle(cluster, [](const cluster::Node& node) {
        return node.free_cpus();
      }) {}

PlacementOracle::PlacementOracle(const cluster::Cluster& cluster,
                                 const core::CodaScheduler& coda)
    : PlacementOracle(cluster, [&coda](const cluster::Node& node) {
        return coda.cpu_array_free_cores(node);
      }) {}

PlacementOracle::PlacementOracle(const cluster::Cluster& cluster,
                                 const CpuBudget& budget) {
  nodes_.reserve(cluster.node_count());
  for (const cluster::Node& node : cluster.nodes()) {
    nodes_.push_back(NodeState{node.id(), node.failed(), node.free_gpus(),
                               node.free_cpus(), budget(node)});
  }
}

std::span<const PlacementOracle::NodeState> PlacementOracle::in(
    sched::IdRange range) const {
  const size_t lo = std::min<size_t>(range.lo, nodes_.size());
  const size_t hi = std::clamp<size_t>(range.hi, lo, nodes_.size());
  return std::span<const NodeState>(nodes_).subspan(lo, hi - lo);
}

std::optional<sched::Placement> PlacementOracle::find_placement(
    const sched::PlacementRequest& request, sched::IdRange range) const {
  // Best-fit score: the fewest free GPUs left, then the fewest free cores
  // left, then the lowest id. `best` holds the best `nodes` seen so far,
  // in ascending order.
  const auto better = [&request](const NodeState* a, const NodeState* b) {
    const int ga = a->free_gpus - request.gpus_per_node;
    const int gb = b->free_gpus - request.gpus_per_node;
    if (ga != gb) {
      return ga < gb;
    }
    const int ca = a->free_cpus - request.cpus_per_node;
    const int cb = b->free_cpus - request.cpus_per_node;
    if (ca != cb) {
      return ca < cb;
    }
    return a->id < b->id;
  };
  const auto want = static_cast<size_t>(request.nodes);
  std::vector<const NodeState*> best;
  for (const NodeState& node : in(range)) {
    if (!node.can_fit(request.cpus_per_node, request.gpus_per_node)) {
      continue;
    }
    if (best.size() < want || better(&node, best.back())) {
      best.insert(std::upper_bound(best.begin(), best.end(), &node, better),
                  &node);
      if (best.size() > want) {
        best.pop_back();
      }
    }
  }
  if (best.size() < want) {
    return std::nullopt;
  }
  sched::Placement placement;
  for (const NodeState* node : best) {
    placement.nodes.push_back(sched::NodePlacement{
        node->id, request.cpus_per_node, request.gpus_per_node});
  }
  return placement;
}

int PlacementOracle::count_feasible(const sched::PlacementRequest& request,
                                    sched::IdRange range, int limit) const {
  int total_slots = 0;
  for (const NodeState& node : in(range)) {
    const int by_cpu = request.cpus_per_node > 0
                           ? node.free_cpus / request.cpus_per_node
                           : limit;
    const int by_gpu = request.gpus_per_node > 0
                           ? node.free_gpus / request.gpus_per_node
                           : limit;
    total_slots += std::min(by_cpu, by_gpu);
    if (total_slots / request.nodes >= limit) {
      return limit;
    }
  }
  return std::min(limit, total_slots / request.nodes);
}

std::vector<cluster::NodeId> PlacementOracle::eviction_candidates(
    const sched::PlacementRequest& request, sched::IdRange range) const {
  std::vector<cluster::NodeId> out;
  for (const NodeState& node : in(range)) {
    if (node.free_gpus >= request.gpus_per_node &&
        node.free_cpus < request.cpus_per_node) {
      out.push_back(node.id);
    }
  }
  return out;
}

PlacementOracle::CpuFit PlacementOracle::cpu_array_best_fit(
    int cpus, bool may_borrow) const {
  CpuFit best;
  int best_left = 0;
  for (const NodeState& node : nodes_) {
    if (node.budget >= cpus) {
      const int left = node.budget - cpus;
      if (best.node == kNone || best.borrows || left < best_left) {
        best = CpuFit{node.id, false};
        best_left = left;
      }
    } else if (may_borrow && node.free_cpus >= cpus &&
               (best.node == kNone || best.borrows)) {
      // Prefer non-borrowing nodes; among borrowing ones, best fit.
      const int left = node.free_cpus - cpus;
      if (best.node == kNone || left < best_left) {
        best = CpuFit{node.id, true};
        best_left = left;
      }
    }
  }
  return best;
}

PlacementOracle::Fragmentation PlacementOracle::fragmentation(
    const sched::Scheduler::PendingGpuDemand& demand,
    const std::function<int(cluster::NodeId)>& reclaimable_cpus) const {
  Fragmentation f;
  for (const NodeState& node : nodes_) {
    if (node.free_gpus == 0) {
      continue;
    }
    if (node.free_gpus < demand.gpus_per_node) {
      f.adjacency += node.free_gpus;
    } else if (node.free_cpus + reclaimable_cpus(node.id) <
               demand.cpus_per_node) {
      f.cpu_starved += node.free_gpus;
    }
  }
  return f;
}

int PlacementOracle::cpu_array_free_cores(const core::CodaScheduler& coda,
                                          const cluster::Node& node) {
  return coda.cpu_array_free_cores(node);
}

std::vector<sched::IdRange> PlacementOracle::gpu_ranges(
    const core::CodaScheduler& coda) {
  const sched::IdRange full{};
  if (!coda.config_.multi_array_enabled) {
    return {full};
  }
  const auto split = static_cast<cluster::NodeId>(coda.four_array_nodes_);
  return {sched::IdRange{0, split}, sched::IdRange{split, full.hi}};
}

}  // namespace coda::oracle
