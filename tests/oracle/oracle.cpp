#include "oracle/oracle.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "perfmodel/train_perf.h"

namespace coda::oracle {

void ReferenceEliminator::check_all_reference(
    const core::ExpectedUtilSource& expected) {
  if (!config_.enabled) {
    return;
  }
  ++stats_.checks;
  for (const cluster::Node& node : env_->cluster->nodes()) {
    if (node.allocations().empty()) {
      continue;
    }
    check_node(node, expected, env_->bandwidth->pressure(node.id()));
    if (config_.release_when_calm) {
      release_node(node, env_->bandwidth->pressure(node.id()));
    }
  }
}

void EngineOracle::sample_metrics(sim::ClusterEngine& engine) {
  engine.sample_metrics();
}

TickAggregates EngineOracle::aggregates(const sim::ClusterEngine& engine,
                                        JobOrder order) {
  engine.ensure_synced();
  const sim::ClusterEngine::JobTable& jobs = engine.jobs_;
  std::vector<uint32_t> slots = jobs.order_;
  if (order == JobOrder::kSlot) {
    std::sort(slots.begin(), slots.end());
  }
  perfmodel::TrainPerf perf;
  double gpu_util_weighted = 0.0;
  int active_gpus = 0;
  double cpu_busy = 0.0;
  int active_cores = 0;
  for (const uint32_t k : slots) {
    if (jobs.slot_at(k).running == nullptr) {
      continue;
    }
    const auto& job = *jobs.slot_at(k).running;
    const workload::JobSpec& spec = *job.spec;
    if (spec.is_gpu_job()) {
      const int gpus = spec.total_gpus();
      gpu_util_weighted += job.gpu_util * gpus;
      active_gpus += gpus;
      for (const auto& [node, st] : job.nodes) {
        const double prep = perf.prep_time(spec.model, spec.train_config,
                                           std::max(1, st.cpus), st.factors);
        const double iter = 1.0 / job.rate;
        cpu_busy += st.cpus * std::min(1.0, prep / iter);
        active_cores += st.cpus;
      }
    } else {
      const auto& st = job.nodes.front().second;
      cpu_busy += st.cpus * st.cpu_rate_factor;
      active_cores += st.cpus;
    }
  }
  TickAggregates out;
  out.gpu_util_active =
      active_gpus > 0 ? gpu_util_weighted / active_gpus : 0.0;
  out.cpu_util_active = active_cores > 0 ? cpu_busy / active_cores : 0.0;
  double pressure = 0.0;
  for (size_t n = 0; n < engine.jobs_on_node_.size(); ++n) {
    if (!engine.jobs_on_node_[n].empty()) {
      pressure += std::min(1.0, engine.node_reports_[n].mem_pressure);
    }
  }
  out.mem_pressure_mean =
      pressure / static_cast<double>(engine.node_reports_.size());
  return out;
}

EngineOracle::LedgerCounts EngineOracle::ledger_counts(
    const sim::ClusterEngine& engine) {
  LedgerCounts out;
  for (const auto& row : engine.ledger_) {
    ++out.rows;
    out.dead += row.dead ? 1 : 0;
  }
  return out;
}

void EngineOracle::screen(const sim::ClusterEngine& engine, double floor,
                          std::vector<cluster::NodeId>* ids,
                          std::vector<double>* pressures) {
  engine.ensure_synced();
  ids->clear();
  pressures->clear();
  for (size_t n = 0; n < engine.jobs_on_node_.size(); ++n) {
    if (engine.jobs_on_node_[n].empty()) {
      continue;
    }
    const double cap = engine.node_bw_caps_[n];
    double total = 0.0;
    if (cap > 0.0) {
      for (const auto& jc : engine.node_reports_[n].jobs) {
        total += jc.achieved_bw_gbps;
      }
    }
    const double p = cap > 0.0 ? total / cap : 0.0;
    if (p >= floor) {
      ids->push_back(static_cast<cluster::NodeId>(n));
      pressures->push_back(p);
    }
  }
}

}  // namespace coda::oracle
