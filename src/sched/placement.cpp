#include "sched/placement.h"

#include <algorithm>

#include "util/assert.h"

namespace coda::sched {

namespace {

bool& index_enabled_flag() {
  static bool enabled = true;
  return enabled;
}

}  // namespace

bool placement_index_enabled() { return index_enabled_flag(); }

void set_placement_index_enabled(bool enabled) {
  index_enabled_flag() = enabled;
}

NodeFilter any_node() {
  return [](const cluster::Node&) { return true; };
}

PlacementRequest baseline_request(const workload::JobSpec& spec) {
  PlacementRequest req;
  if (spec.is_gpu_job()) {
    req.nodes = spec.train_config.nodes;
    req.gpus_per_node = spec.train_config.gpus_per_node;
    req.cpus_per_node = std::max(1, spec.requested_cpus);
  } else {
    req.nodes = 1;
    req.gpus_per_node = 0;
    req.cpus_per_node = std::max(1, spec.cpu_cores);
  }
  return req;
}

namespace {

// Best-fit score: prefer nodes that would be left with the fewest free GPUs,
// then the fewest free cores (pack tightly, keep big holes open for big
// jobs). Lower is better.
struct Candidate {
  const cluster::Node* node = nullptr;
  int free_gpus_after = 0;
  int free_cpus_after = 0;

  bool operator<(const Candidate& other) const {
    if (free_gpus_after != other.free_gpus_after) {
      return free_gpus_after < other.free_gpus_after;
    }
    if (free_cpus_after != other.free_cpus_after) {
      return free_cpus_after < other.free_cpus_after;
    }
    return node->id() < other.node->id();
  }
};

// Linear-scan search shared by the NodeFilter overload and the index-off
// fallback; `pred` is any callable over const Node&.
template <typename Pred>
std::optional<Placement> find_placement_linear(const cluster::Cluster& cluster,
                                               const PlacementRequest& request,
                                               Pred&& pred) {
  // Single-node requests (every CPU job and most GPU jobs) dominate the
  // schedulers' probe traffic: pick the best-fit node in one pass with no
  // candidate buffer at all. The comparator is a strict total order (ties
  // break on node id), so the running minimum is exactly sort()[0].
  if (request.nodes == 1) {
    Candidate best;
    for (const auto& node : cluster.nodes()) {
      if (!pred(node) ||
          !node.can_fit(request.cpus_per_node, request.gpus_per_node)) {
        continue;
      }
      Candidate c{&node, node.free_gpus() - request.gpus_per_node,
                  node.free_cpus() - request.cpus_per_node};
      if (best.node == nullptr || c < best) {
        best = c;
      }
    }
    if (best.node == nullptr) {
      return std::nullopt;
    }
    Placement placement;
    placement.nodes.push_back(NodePlacement{
        best.node->id(), request.cpus_per_node, request.gpus_per_node});
    return placement;
  }
  // Multi-node: rank every feasible node, take the best `nodes`. The
  // scratch buffer is reused across calls (one per runner thread); only the
  // leading `request.nodes` entries need to be ordered, and partial_sort
  // selects the same prefix as a full sort under a total order.
  static thread_local std::vector<Candidate> candidates;
  candidates.clear();
  for (const auto& node : cluster.nodes()) {
    if (!pred(node)) {
      continue;
    }
    if (!node.can_fit(request.cpus_per_node, request.gpus_per_node)) {
      continue;
    }
    candidates.push_back(
        Candidate{&node, node.free_gpus() - request.gpus_per_node,
                  node.free_cpus() - request.cpus_per_node});
  }
  if (static_cast<int>(candidates.size()) < request.nodes) {
    return std::nullopt;
  }
  std::partial_sort(candidates.begin(),
                    candidates.begin() + request.nodes, candidates.end());
  Placement placement;
  for (int i = 0; i < request.nodes; ++i) {
    placement.nodes.push_back(NodePlacement{candidates[static_cast<size_t>(i)].node->id(),
                                            request.cpus_per_node,
                                            request.gpus_per_node});
  }
  return placement;
}

// Capacity probe shared by the NodeFilter overload and the index-off
// fallback: how many *disjoint* placements fit, assuming each node can host
// floor(free/need) copies.
template <typename Pred>
int count_feasible_linear(const cluster::Cluster& cluster,
                          const PlacementRequest& request, Pred&& pred,
                          int limit) {
  int total_slots = 0;
  for (const auto& node : cluster.nodes()) {
    if (!pred(node)) {
      continue;
    }
    int by_cpu = request.cpus_per_node > 0
                     ? node.free_cpus() / request.cpus_per_node
                     : limit;
    int by_gpu = request.gpus_per_node > 0
                     ? node.free_gpus() / request.gpus_per_node
                     : limit;
    total_slots += std::min(by_cpu, by_gpu);
    if (total_slots / request.nodes >= limit) {
      return limit;
    }
  }
  return std::min(limit, total_slots / request.nodes);
}

bool in_range(const cluster::Node& node, IdRange range) {
  return node.id() >= range.lo && node.id() < range.hi;
}

}  // namespace

std::optional<Placement> find_placement(const cluster::Cluster& cluster,
                                        const PlacementRequest& request) {
  return find_placement(cluster, request, IdRange{});
}

std::optional<Placement> find_placement(const cluster::Cluster& cluster,
                                        const PlacementRequest& request,
                                        IdRange range) {
  CODA_ASSERT(request.nodes >= 1);
  CODA_ASSERT(request.cpus_per_node >= 1 || request.gpus_per_node >= 1);
  if (!placement_index_enabled()) {
    return find_placement_linear(
        cluster, request,
        [range](const cluster::Node& node) { return in_range(node, range); });
  }
  // Bucket probe: the index walks (free_gpus, free_cpus, id) ascending from
  // the request's demand, which is exactly the best-fit preference order, so
  // the first `nodes` feasible ids it yields are the linear scan's answer.
  static thread_local std::vector<cluster::NodeId> ids;
  ids.clear();
  const size_t got = cluster.placement_index().collect_best_fit(
      request.gpus_per_node, request.cpus_per_node, range,
      static_cast<size_t>(request.nodes), &ids);
  if (got < static_cast<size_t>(request.nodes)) {
    return std::nullopt;
  }
  Placement placement;
  for (cluster::NodeId id : ids) {
    placement.nodes.push_back(
        NodePlacement{id, request.cpus_per_node, request.gpus_per_node});
  }
  return placement;
}

std::optional<Placement> find_placement(const cluster::Cluster& cluster,
                                        const PlacementRequest& request,
                                        const NodeFilter& filter) {
  CODA_ASSERT(request.nodes >= 1);
  CODA_ASSERT(request.cpus_per_node >= 1 || request.gpus_per_node >= 1);
  return find_placement_linear(cluster, request, filter);
}

int count_feasible(const cluster::Cluster& cluster,
                   const PlacementRequest& request, IdRange range, int limit) {
  if (!placement_index_enabled()) {
    return count_feasible_linear(
        cluster, request,
        [range](const cluster::Node& node) { return in_range(node, range); },
        limit);
  }
  const long long stop =
      static_cast<long long>(limit) * static_cast<long long>(request.nodes);
  const long long total = cluster.placement_index().feasible_slots(
      request.gpus_per_node, request.cpus_per_node, range, limit, stop);
  const long long count = total / request.nodes;
  return static_cast<int>(std::min<long long>(limit, count));
}

int count_feasible(const cluster::Cluster& cluster,
                   const PlacementRequest& request, const NodeFilter& filter,
                   int limit) {
  return count_feasible_linear(cluster, request, filter, limit);
}

}  // namespace coda::sched
