// Randomized equivalence suite for the incremental placement index.
//
// Drives a cluster through thousands of random mutations (allocate, resize,
// release, failure toggles, CPU-bias updates) and checks after every step
// that each indexed query returns exactly what the oracle's linear scans
// (tests/oracle/placement_oracle.h) return: find_placement,
// count_feasible and eviction_candidates over random id ranges, and the
// CODA side queries (best_adjusted_fit, best_free_cpu_fit, the
// fragmentation bucket sum). The index is pure derived state — any
// divergence here is a maintenance bug, not a modelling choice.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "oracle/placement_oracle.h"
#include "sched/placement.h"
#include "util/rng.h"

namespace coda {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::NodeId;
using cluster::PlacementIndex;
using oracle::PlacementOracle;

ClusterConfig mixed_cluster() {
  ClusterConfig cfg;
  cfg.node_count = 24;
  cfg.node.cores = 12;
  cfg.node.gpus = 4;
  cfg.cpu_only_node_count = 8;
  cfg.cpu_only_node.cores = 16;
  cfg.cpu_only_node.gpus = 0;
  return cfg;
}

bool placements_equal(const std::optional<sched::Placement>& a,
                      const std::optional<sched::Placement>& b) {
  if (a.has_value() != b.has_value()) {
    return false;
  }
  if (!a.has_value()) {
    return true;
  }
  if (a->nodes.size() != b->nodes.size()) {
    return false;
  }
  for (size_t i = 0; i < a->nodes.size(); ++i) {
    if (a->nodes[i].node != b->nodes[i].node ||
        a->nodes[i].cpus != b->nodes[i].cpus ||
        a->nodes[i].gpus != b->nodes[i].gpus) {
      return false;
    }
  }
  return true;
}

// The index's half of the CODA CPU-array pick, composed as the scheduler
// composes it.
PlacementOracle::CpuFit indexed_cpu_fit(const PlacementIndex& index,
                                        int cpus, bool may_borrow) {
  PlacementOracle::CpuFit fit{index.best_adjusted_fit(cpus), false};
  if (fit.node == PlacementIndex::kNone && may_borrow) {
    fit.node = index.best_free_cpu_fit(cpus);
    fit.borrows = fit.node != PlacementIndex::kNone;
  }
  return fit;
}

TEST(PlacementIndexProperty, RandomWalkMatchesLinearScan) {
  Cluster cluster(mixed_cluster());
  util::Rng rng(0xC0DA5CA1Eull);
  // Live allocations: (job -> node), single-node for simplicity — the index
  // only sees per-node free counts, so multi-node jobs add no new states.
  std::map<cluster::JobId, NodeId> live;
  cluster::JobId next_job = 1;

  const int kSteps = 4000;
  for (int step = 0; step < kSteps; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    if (op <= 3) {  // allocate
      const NodeId node =
          static_cast<NodeId>(rng.uniform_int(0, cluster.node_count() - 1));
      const int cpus = static_cast<int>(rng.uniform_int(1, 6));
      const int gpus = static_cast<int>(
          rng.uniform_int(0, std::min(2, cluster.node(node).total_gpus())));
      if (cluster.node(node).can_fit(cpus, gpus)) {
        ASSERT_TRUE(cluster.node(node).allocate(next_job, cpus, gpus).ok());
        live[next_job] = node;
        ++next_job;
      }
    } else if (op <= 5 && !live.empty()) {  // release
      auto it = live.begin();
      std::advance(it, rng.uniform_int(0, live.size() - 1));
      if (!cluster.node(it->second).failed()) {
        ASSERT_TRUE(cluster.node(it->second).release(it->first).ok());
        live.erase(it);
      }
    } else if (op == 6 && !live.empty()) {  // resize
      auto it = live.begin();
      std::advance(it, rng.uniform_int(0, live.size() - 1));
      cluster::Node& node = cluster.node(it->second);
      if (!node.failed()) {
        const int new_cpus = static_cast<int>(rng.uniform_int(1, 8));
        (void)node.resize_cpus(it->first, new_cpus);  // may not fit; fine
      }
    } else if (op == 7) {  // failure toggle
      const NodeId node =
          static_cast<NodeId>(rng.uniform_int(0, cluster.node_count() - 1));
      if (cluster.node(node).failed()) {
        cluster.node(node).set_failed(false);
      } else if (cluster.node(node).allocations().empty()) {
        // The engine evicts residents before failing a node; mirror that
        // precondition by only failing empty nodes.
        cluster.node(node).set_failed(true);
      }
    } else {  // publish a reservation bias
      const NodeId node =
          static_cast<NodeId>(rng.uniform_int(0, cluster.node_count() - 1));
      cluster.placement_index().set_cpu_bias(
          node, static_cast<int>(rng.uniform_int(0, 10)));
    }

    // --- indexed vs oracle find_placement / count_feasible / evictions ---
    sched::PlacementRequest req;
    req.nodes = static_cast<int>(rng.uniform_int(1, 3));
    req.gpus_per_node = static_cast<int>(rng.uniform_int(0, 4));
    req.cpus_per_node = static_cast<int>(rng.uniform_int(1, 8));
    PlacementIndex::IdRange range;
    if (rng.uniform() < 0.5) {
      const NodeId a =
          static_cast<NodeId>(rng.uniform_int(0, cluster.node_count()));
      const NodeId b =
          static_cast<NodeId>(rng.uniform_int(0, cluster.node_count()));
      range.lo = std::min(a, b);
      range.hi = std::max(a, b);
    }
    const int limit = static_cast<int>(rng.uniform_int(1, 12));

    const PlacementIndex& index = cluster.placement_index();
    const PlacementOracle oracle(cluster, [&index](const cluster::Node& node) {
      // The CPU-array budget the index's adjusted table encodes.
      return std::max(0, node.free_cpus() - index.cpu_bias(node.id()));
    });
    ASSERT_TRUE(placements_equal(sched::find_placement(cluster, req, range),
                                 oracle.find_placement(req, range)))
        << "step " << step << " req={" << req.nodes << ","
        << req.gpus_per_node << "," << req.cpus_per_node << "} range=["
        << range.lo << "," << range.hi << ")";
    ASSERT_EQ(sched::count_feasible(cluster, req, range, limit),
              oracle.count_feasible(req, range, limit))
        << "step " << step;
    std::vector<NodeId> candidates;
    sched::eviction_candidates(cluster, req, range, &candidates);
    ASSERT_EQ(candidates, oracle.eviction_candidates(req, range))
        << "step " << step;

    // --- CODA side queries vs the oracle --------------------------------
    const int k = static_cast<int>(rng.uniform_int(1, 12));
    for (const bool may_borrow : {false, true}) {
      ASSERT_EQ(indexed_cpu_fit(index, k, may_borrow),
                oracle.cpu_array_best_fit(k, may_borrow))
          << "step " << step << " k=" << k << " borrow=" << may_borrow;
    }
    // With no CPU-array budget anywhere every pick borrows, which holds the
    // free-cores table to the oracle on its own.
    ASSERT_EQ(index.best_free_cpu_fit(k),
              PlacementOracle(cluster, [](const cluster::Node&) { return 0; })
                  .cpu_array_best_fit(k, /*may_borrow=*/true)
                  .node)
        << "step " << step << " k=" << k;
    const int eg = static_cast<int>(rng.uniform_int(1, 4));
    ASSERT_EQ(index.free_gpu_sum_below(eg),
              oracle
                  .fragmentation(sched::Scheduler::PendingGpuDemand{eg, 1},
                                 [](NodeId) { return 0; })
                  .adjacency)
        << "step " << step << " eg=" << eg;
  }
  // The walk must actually exercise the cluster, not no-op through it.
  EXPECT_GT(next_job, 500u);
  EXPECT_GT(cluster.placement_index().generation(), 1000u);
}

// The generation counter must move on every observable index change — the
// schedulers key their failed-shape dedup caches on it, so a missed bump
// would let a stale "this shape cannot place" verdict suppress a feasible
// placement.
TEST(PlacementIndexProperty, GenerationAdvancesOnObservableChanges) {
  Cluster cluster(mixed_cluster());
  PlacementIndex& index = cluster.placement_index();
  const uint64_t g0 = index.generation();
  ASSERT_TRUE(cluster.node(0).allocate(1, 2, 1).ok());
  const uint64_t g1 = index.generation();
  EXPECT_GT(g1, g0);
  // Re-publishing an unchanged bias is not an observable change.
  index.set_cpu_bias(0, 0);
  EXPECT_EQ(index.generation(), g1);
  index.set_cpu_bias(0, 3);
  EXPECT_GT(index.generation(), g1);
  const uint64_t g2 = index.generation();
  ASSERT_TRUE(cluster.node(0).release(1).ok());
  EXPECT_GT(index.generation(), g2);
}

}  // namespace
}  // namespace coda
