#include "sim/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "sched/placement.h"
#include "simcore/event_tags.h"
#include "util/assert.h"
#include "util/logging.h"
#include "util/strings.h"

namespace coda::sim {

ClusterEngine::ClusterEngine(const EngineConfig& config,
                             sched::Scheduler* scheduler, bool restore_mode)
    : config_(config),
      scheduler_(scheduler),
      cluster_(config.cluster),
      mba_(&cluster_),
      noise_rng_(config.noise_seed),
      event_log_(config.record_events) {
  jobs_on_node_.resize(cluster_.node_count());
  node_bw_caps_.reserve(cluster_.node_count());
  for (const auto& node : cluster_.nodes()) {
    node_bw_caps_.push_back(node.config().mem_bw_gbps);
  }
  node_reports_.resize(cluster_.node_count());
  node_pressure_.assign(cluster_.node_count(), 0.0);
  node_mem_load_.assign(cluster_.node_count(), 0.0);
  hot_nodes_.reset(cluster_.node_count());
  for (auto& list : jobs_on_node_) {
    list.reserve(16);  // a 28-core node rarely hosts more residents
  }
  footprints_scratch_.reserve(32);
  node_dirty_.assign(cluster_.node_count(), 0);
  dirty_nodes_.reserve(cluster_.node_count());
  if (config_.incremental_recompute) {
    // Drain the dirty set after every dispatched event: each event's
    // mutations happen at one simulated instant, so one recompute per
    // touched node at the end of the dispatch observes the same state the
    // eager path's last recompute would.
    sim_.set_post_dispatch([this] { flush_dirty_nodes(); });
  }

  series_.gpu_active = &metrics_.series_mut("gpu_active_rate");
  series_.cpu_active = &metrics_.series_mut("cpu_active_rate");
  series_.gpu_frag = &metrics_.series_mut("gpu_frag_rate");
  series_.gpu_frag_case2 = &metrics_.series_mut("gpu_frag_case2_rate");
  series_.pending_jobs = &metrics_.series_mut("pending_jobs");
  series_.pending_gpu_jobs = &metrics_.series_mut("pending_gpu_jobs");
  series_.gpu_util_active = &metrics_.series_mut("gpu_util_active");
  series_.cpu_util_active = &metrics_.series_mut("cpu_util_active");
  series_.mem_pressure = &metrics_.series_mut("mem_pressure_mean");

  sched::SchedulerEnv env;
  env.sim = &sim_;
  env.cluster = &cluster_;
  env.defer_periodics = restore_mode;
  env.start_job = [this](cluster::JobId id, const sched::Placement& p) {
    return start_job(id, p);
  };
  env.preempt_job = [this](cluster::JobId id, bool keep) {
    return preempt_job(id, keep);
  };
  env.resize_job = [this](cluster::JobId id, cluster::NodeId node,
                          int cpus) { return resize_job(id, node, cpus); };
  env.gpu_util = this;
  env.bandwidth = this;
  env.set_bw_cap = [this](cluster::NodeId node, cluster::JobId id,
                          double cap) {
    auto status = mba_.set_cap(node, id, cap);
    if (status.ok()) {
      event_log_.record(sim_.now(), EventKind::kBwCap, id,
                        static_cast<int>(node), cap);
      mark_node_dirty(node);
    }
    return status;
  };
  env.clear_bw_cap = [this](cluster::NodeId node, cluster::JobId id) {
    mba_.clear_cap(node, id);
    event_log_.record(sim_.now(), EventKind::kBwCapClear, id,
                      static_cast<int>(node));
    mark_node_dirty(node);
  };
  env.bw_cap = [this](cluster::NodeId node, cluster::JobId id) {
    return mba_.cap(node, id);
  };
  env.abandon_job = [this](cluster::JobId id) { abandon_job(id); };
  env.set_pressure_screen_floor = [this](double floor) {
    set_pressure_screen_floor(floor);
  };

  sim_.set_handler(simcore::kTagArrival, [this](const simcore::EventTag& e) {
    on_arrival(e.a);
  });
  sim_.set_handler(simcore::kTagJobFinish,
                   [this](const simcore::EventTag& e) { finish_job(e.a); });
  sim_.set_handler(simcore::kTagNodeFail, [this](const simcore::EventTag& e) {
    (void)fail_node(static_cast<cluster::NodeId>(e.a));
  });
  sim_.set_handler(simcore::kTagNodeRecover,
                   [this](const simcore::EventTag& e) {
                     (void)recover_node(static_cast<cluster::NodeId>(e.a));
                   });
  sim_.set_handler(simcore::kTagMetricsTick,
                   [this](const simcore::EventTag&) { sample_metrics(); });
  scheduler_->attach(env);

  if (!restore_mode) {
    sim_.start_periodic(config_.metrics_period_s, config_.metrics_period_s,
                        simcore::EventTag{simcore::kTagMetricsTick});
  }
}

namespace {

util::Error invalid_rearm(const std::string& what) {
  return util::Error{util::ErrorCode::kInvalidArgument, what};
}

}  // namespace

util::Status ClusterEngine::rearm_metrics_tick(double first) {
  if (sim_.periodic_running(simcore::kTagMetricsTick)) {
    return invalid_rearm("second metrics tick in the manifest");
  }
  sim_.start_periodic(first, config_.metrics_period_s,
                      simcore::EventTag{simcore::kTagMetricsTick});
  return util::Status::Ok();
}

ClusterEngine::~ClusterEngine() = default;

// ------------------------------------------------------------- job table

const JobRecord& ClusterEngine::JobTable::at(cluster::JobId id) const {
  const Slot* slot = find_slot(id);
  if (slot == nullptr) {
    throw std::out_of_range(util::strfmt(
        "unknown job %llu", static_cast<unsigned long long>(id)));
  }
  return slot->entry.second;
}

ClusterEngine::JobTable::const_iterator ClusterEngine::JobTable::find(
    cluster::JobId id) const {
  auto it = index_.find(id);
  if (it == index_.end()) {
    return end();
  }
  const uint32_t slot = it->second;
  // Ids that arrive in ascending order (every trace load and auto-id
  // SUBMIT) leave slot k at position k of the id order.
  if (slot < order_.size() && order_[slot] == slot) {
    return {this, order_.data() + slot};
  }
  return {this, order_.data() + (order_position(id) - order_.begin())};
}

std::vector<uint32_t>::const_iterator
ClusterEngine::JobTable::order_position(cluster::JobId id) const {
  return std::lower_bound(order_.begin(), order_.end(), id,
                          [this](uint32_t k, cluster::JobId key) {
                            return slot_at(k).entry.first < key;
                          });
}

ClusterEngine::JobTable::Slot& ClusterEngine::JobTable::add(
    cluster::JobId id) {
  CODA_ASSERT(order_.size() < UINT32_MAX);
  const uint32_t slot = static_cast<uint32_t>(order_.size());
  if (slot == chunks_.size() * kChunkSize) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  Slot& s = slot_at(slot);
  s.entry.first = id;
  const bool inserted = index_.emplace(id, slot).second;
  CODA_ASSERT(inserted);
  if (order_.empty() || slot_at(order_.back()).entry.first < id) {
    order_.push_back(slot);
  } else {
    order_.insert(order_position(id), slot);
  }
  return s;
}

void ClusterEngine::JobTable::reserve(size_t jobs) {
  index_.reserve(order_.size() + jobs);
  order_.reserve(order_.size() + jobs);
}

void ClusterEngine::JobTable::set_pending(Slot& s, double since) {
  pending_count_ += s.pending ? 0 : 1;
  s.pending = true;
  s.pending_since = since;
}

void ClusterEngine::JobTable::clear_pending(Slot& s) {
  pending_count_ -= s.pending ? 1 : 0;
  s.pending = false;
}

void ClusterEngine::JobTable::set_remaining(Slot& s, double work) {
  remaining_count_ += s.has_remaining ? 0 : 1;
  s.has_remaining = true;
  s.remaining_work = work;
}

void ClusterEngine::JobTable::clear_remaining(Slot& s) {
  remaining_count_ -= s.has_remaining ? 1 : 0;
  s.has_remaining = false;
}

ClusterEngine::RunningJob& ClusterEngine::JobTable::set_running(Slot& s) {
  CODA_ASSERT(s.running == nullptr);
  s.running = std::make_unique<RunningJob>();
  ++running_count_;
  return *s.running;
}

std::unique_ptr<ClusterEngine::RunningJob>
ClusterEngine::JobTable::take_running(Slot& s) {
  CODA_ASSERT(s.running != nullptr);
  --running_count_;
  return std::move(s.running);
}

// ------------------------------------------------------------------ jobs

double ClusterEngine::total_work_of(const workload::JobSpec& spec) const {
  return spec.is_gpu_job() ? spec.iterations : spec.cpu_work_core_s;
}

void ClusterEngine::load_trace(const std::vector<workload::JobSpec>& trace) {
  jobs_.reserve(trace.size());
  for (const auto& spec : trace) {
    inject(spec, spec.submit_time);
  }
}

void ClusterEngine::inject(const workload::JobSpec& spec, double t) {
  CODA_ASSERT_MSG(jobs_.count(spec.id) == 0, "duplicate job id injected");
  JobRecord& record = jobs_.add(spec.id).entry.second;
  record.spec = spec;
  record.submit_time = t;
  sim_.post_at(t, simcore::EventTag{simcore::kTagArrival, spec.id});
}

util::Status ClusterEngine::rearm_arrival(double t, cluster::JobId id) {
  if (jobs_.count(id) == 0) {
    return invalid_rearm(util::strfmt(
        "arrival manifest entry for unknown job %llu",
        static_cast<unsigned long long>(id)));
  }
  sim_.post_at(t, simcore::EventTag{simcore::kTagArrival, id});
  return util::Status::Ok();
}

void ClusterEngine::on_arrival(cluster::JobId id) {
  JobTable::Slot* slot = jobs_.find_slot(id);
  CODA_ASSERT(slot != nullptr);
  jobs_.set_pending(*slot, sim_.now());
  ++submitted_count_;
  event_log_.record(sim_.now(), EventKind::kArrival, id);
  scheduler_->submit(slot->entry.second.spec);
  scheduler_->kick();
}

void ClusterEngine::run_until(double until) {
  // Mutations made through the direct API (tests injecting failures, the
  // service layer) land between dispatches; sync before the queue advances.
  flush_dirty_nodes();
  sim_.run_until(until);
}

void ClusterEngine::drain(double hard_cap) {
  // Periodic metric/eliminator events keep the queue non-empty forever, so
  // advance in chunks and stop once every submitted job completed or was
  // abandoned by the retry policy.
  flush_dirty_nodes();
  while (sim_.now() < hard_cap &&
         finished_count_ + abandoned_count_ < jobs_.size()) {
    sim_.run_until(std::min(hard_cap, sim_.now() + 6.0 * 3600.0));
  }
}

// ------------------------------------------------------ scheduler callbacks

util::Status ClusterEngine::start_job(cluster::JobId id,
                                      const sched::Placement& placement) {
  JobTable::Slot* slot = jobs_.find_slot(id);
  if (slot == nullptr) {
    return util::Error{util::ErrorCode::kNotFound,
                       util::strfmt("unknown job %llu",
                                    static_cast<unsigned long long>(id))};
  }
  if (slot->running != nullptr) {
    return util::Error{util::ErrorCode::kFailedPrecondition,
                       "job is already running"};
  }
  if (placement.nodes.empty()) {
    return util::Error{util::ErrorCode::kInvalidArgument,
                       "placement has no nodes"};
  }
  // Allocate on every node, rolling back on failure.
  for (size_t i = 0; i < placement.nodes.size(); ++i) {
    const auto& np = placement.nodes[i];
    auto status = cluster_.node(np.node).allocate(id, np.cpus, np.gpus);
    if (!status.ok()) {
      for (size_t j = 0; j < i; ++j) {
        auto release = cluster_.node(placement.nodes[j].node).release(id);
        CODA_ASSERT(release.ok());
      }
      return status;
    }
  }

  JobRecord& record = slot->entry.second;
  RunningJob& running = jobs_.set_running(*slot);
  running.id = id;
  running.spec = &record.spec;
  running.placement = placement;
  running.remaining = slot->has_remaining ? slot->remaining_work
                                          : total_work_of(record.spec);
  // The start state is durable: a fresh job restarts from zero anyway, and
  // a restarted one resumes from persisted (checkpointed) progress.
  running.ckpt_remaining = running.remaining;
  running.last_update = sim_.now();
  // Build the flat per-node vector to its final (sorted) size before any
  // Resident caches a PerNodeState address: push_back after that point
  // would reallocate the buffer out from under the resident lists.
  running.nodes.reserve(placement.nodes.size());
  for (const auto& np : placement.nodes) {
    running.nodes.emplace_back(np.node, PerNodeState{});
  }
  std::sort(running.nodes.begin(), running.nodes.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& np : placement.nodes) {
    PerNodeState& st = *node_state(running, np.node);
    st.cpus = np.cpus;
    rebuild_footprint(running, np.node);
    jobs_on_node_[np.node].push_back(Resident{id, &running, &st});
  }
  for (const auto& np : placement.nodes) {
    mark_node_dirty(np.node);
  }

  // Queueing accounting.
  CODA_ASSERT(slot->pending);
  record.queue_time_total += sim_.now() - slot->pending_since;
  if (record.first_start_time < 0.0) {
    record.first_start_time = sim_.now();
  }
  if (record.evict_count > record.restart_count) {
    // This start is the recovery from a node-failure eviction (migrations
    // and scheduler preemptions do not count as restarts).
    ++record.restart_count;
  }
  jobs_.clear_pending(*slot);
  event_log_.record(sim_.now(), EventKind::kStart, id,
                    static_cast<int>(placement.nodes.front().node),
                    placement.total_cpus());
  return util::Status::Ok();
}

util::Status ClusterEngine::preempt_job(cluster::JobId id,
                                        bool keep_progress) {
  auto status = stop_running_job(id, keep_progress);
  if (status.ok()) {
    event_log_.record(sim_.now(), EventKind::kPreempt, id, -1,
                      keep_progress ? 1.0 : 0.0);
  }
  return status;
}

util::Status ClusterEngine::stop_running_job(cluster::JobId id,
                                             bool keep_progress) {
  JobTable::Slot* slot = jobs_.find_slot(id);
  if (slot == nullptr || slot->running == nullptr) {
    return util::Error{util::ErrorCode::kNotFound, "job is not running"};
  }
  RunningJob& job = *slot->running;
  advance_progress(job);
  JobRecord& record = slot->entry.second;
  record.busy_core_s += job.busy_core_s;
  record.busy_gpu_s += job.busy_gpu_s;
  if (keep_progress) {
    jobs_.set_remaining(*slot, job.remaining);
  } else {
    // Everything computed since the last durable point is discarded:
    // charge it as wasted work and roll back to the checkpoint (or to
    // nothing for a job that never checkpoints).
    record.wasted_core_s += job.ckpt_busy_core_s;
    record.wasted_gpu_s += job.ckpt_busy_gpu_s;
    if (job.spec->checkpointing()) {
      jobs_.set_remaining(*slot, job.ckpt_remaining);
    } else {
      jobs_.clear_remaining(*slot);
    }
  }
  job.finish_event.cancel();
  release_running(*slot);
  record.preempt_count += 1;
  jobs_.set_pending(*slot, sim_.now());
  return util::Status::Ok();
}

util::Status ClusterEngine::resize_job(cluster::JobId id,
                                       cluster::NodeId node, int new_cpus) {
  JobTable::Slot* slot = jobs_.find_slot(id);
  if (slot == nullptr || slot->running == nullptr) {
    return util::Error{util::ErrorCode::kNotFound, "job is not running"};
  }
  RunningJob& job = *slot->running;
  PerNodeState* st = node_state(job, node);
  if (st == nullptr) {
    return util::Error{util::ErrorCode::kNotFound,
                       "job holds nothing on that node"};
  }
  auto status = cluster_.node(node).resize_cpus(id, new_cpus);
  if (!status.ok()) {
    return status;
  }
  st->cpus = new_cpus;
  for (auto& np : job.placement.nodes) {
    if (np.node == node) {
      np.cpus = new_cpus;
    }
  }
  rebuild_footprint(job, node);
  mark_node_dirty(node);
  event_log_.record(sim_.now(), EventKind::kResize, id,
                    static_cast<int>(node), new_cpus);
  return util::Status::Ok();
}

util::Status ClusterEngine::fail_node(cluster::NodeId node_id) {
  cluster::Node& node = cluster_.node(node_id);
  if (node.failed()) {
    return util::Error{util::ErrorCode::kFailedPrecondition,
                       "node is already down"};
  }
  // Evict every resident job (multi-node jobs die wholesale: the failed
  // leg takes the gang down). Snapshot ids first: eviction mutates lists.
  std::vector<cluster::JobId> victims;
  victims.reserve(jobs_on_node_[node_id].size());
  for (const Resident& r : jobs_on_node_[node_id]) {
    victims.push_back(r.id);
  }
  for (cluster::JobId id : victims) {
    JobTable::Slot* slot = jobs_.find_slot(id);
    if (slot->running == nullptr) {
      continue;  // already evicted as another leg of a multi-node job
    }
    auto status = stop_running_job(id, /*keep_progress=*/false);
    CODA_ASSERT(status.ok());
    JobRecord& record = slot->entry.second;
    record.evict_count += 1;
    event_log_.record(sim_.now(), EventKind::kEvict, id,
                      static_cast<int>(node_id));
    scheduler_->on_job_evicted(record.spec);
  }
  node.set_failed(true);
  ++node_failures_;
  event_log_.record(sim_.now(), EventKind::kNodeFail, 0,
                    static_cast<int>(node_id));
  metrics_.increment("node_failures");
  scheduler_->kick();
  return util::Status::Ok();
}

util::Status ClusterEngine::recover_node(cluster::NodeId node_id) {
  cluster::Node& node = cluster_.node(node_id);
  if (!node.failed()) {
    return util::Error{util::ErrorCode::kFailedPrecondition,
                       "node is not down"};
  }
  node.set_failed(false);
  event_log_.record(sim_.now(), EventKind::kNodeRecover, 0,
                    static_cast<int>(node_id));
  scheduler_->kick();
  return util::Status::Ok();
}

void ClusterEngine::schedule_node_outage(cluster::NodeId node, double at,
                                         double outage_s) {
  CODA_ASSERT(outage_s > 0.0);
  CODA_ASSERT(node < cluster_.node_count());
  sim_.post_at(at, simcore::EventTag{simcore::kTagNodeFail, node});
  sim_.post_at(at + outage_s,
               simcore::EventTag{simcore::kTagNodeRecover, node});
}

util::Status ClusterEngine::rearm_outage(double t, uint32_t kind,
                                         uint64_t node) {
  if (node >= cluster_.node_count()) {
    return invalid_rearm(util::strfmt(
        "outage manifest entry for node %llu of a %zu-node cluster",
        static_cast<unsigned long long>(node), cluster_.node_count()));
  }
  sim_.post_at(t, simcore::EventTag{kind, node});
  return util::Status::Ok();
}

void ClusterEngine::finish_job(cluster::JobId id) {
  JobTable::Slot* slot = jobs_.find_slot(id);
  CODA_ASSERT(slot != nullptr && slot->running != nullptr);
  RunningJob& job = *slot->running;
  advance_progress(job);

  JobRecord& record = slot->entry.second;
  record.finish_time = sim_.now();
  record.completed = true;
  record.final_cpus = job.placement.nodes.front().cpus;
  record.busy_core_s += job.busy_core_s;
  record.busy_gpu_s += job.busy_gpu_s;

  release_running(*slot);
  jobs_.clear_remaining(*slot);
  ++finished_count_;
  event_log_.record(sim_.now(), EventKind::kFinish, id);
  scheduler_->on_job_finished(record.spec);
  scheduler_->kick();
}

void ClusterEngine::abandon_job(cluster::JobId id) {
  JobTable::Slot* slot = jobs_.find_slot(id);
  CODA_ASSERT_MSG(slot != nullptr, "abandoning an unknown job");
  JobRecord& record = slot->entry.second;
  CODA_ASSERT_MSG(!record.completed && !record.abandoned,
                  "abandoning a finished job");
  CODA_ASSERT_MSG(slot->running == nullptr, "abandoning a running job");
  record.abandoned = true;
  if (slot->pending) {
    record.queue_time_total += sim_.now() - slot->pending_since;
    jobs_.clear_pending(*slot);
  }
  jobs_.clear_remaining(*slot);
  ++abandoned_count_;
  event_log_.record(sim_.now(), EventKind::kAbandon, id);
  metrics_.increment("jobs_abandoned");
}

void ClusterEngine::release_running(JobTable::Slot& slot) {
  const cluster::JobId id = slot.entry.first;
  // Owned here until the end: its placement names the nodes to mark dirty
  // once the job is gone from them.
  const std::unique_ptr<RunningJob> job = jobs_.take_running(slot);
  for (const auto& np : job->placement.nodes) {
    auto& list = jobs_on_node_[np.node];
    list.erase(std::remove_if(list.begin(), list.end(),
                              [id](const Resident& r) { return r.id == id; }),
               list.end());
    auto release = cluster_.node(np.node).release(id);
    CODA_ASSERT(release.ok());
  }
  mba_.clear_job(id);
  erase_ledger(*job);
  for (const auto& np : job->placement.nodes) {
    mark_node_dirty(np.node);
  }
}

// ----------------------------------------------------- contention and rates

ClusterEngine::PerNodeState* ClusterEngine::node_state(RunningJob& job,
                                                       cluster::NodeId node) {
  for (auto& [n, st] : job.nodes) {
    if (n == node) {
      return &st;
    }
  }
  return nullptr;
}

void ClusterEngine::rebuild_footprint(RunningJob& job, cluster::NodeId node) {
  PerNodeState& st = *node_state(job, node);
  perfmodel::ResourceFootprint& fp = st.footprint;
  fp.job = job.id;
  const workload::JobSpec& spec = *job.spec;
  if (spec.is_gpu_job()) {
    const auto& params = perfmodel::model_params(spec.model);
    fp.is_gpu_job = true;
    fp.mem_bw_gbps =
        perf_.mem_bw_demand_gbps(spec.model, spec.train_config, st.cpus);
    fp.pcie_gbps =
        perf_.pcie_demand_gbps(spec.model, spec.train_config, st.cpus);
    fp.llc_mb = perf_.llc_demand_mb(spec.model, spec.train_config);
    fp.bw_latency_sensitivity = params.bw_latency_sensitivity;
    fp.bw_share_dependence = params.bw_share_dependence;
    fp.llc_sensitivity = params.llc_sensitivity;
    fp.mem_bw_cap_gbps = -1.0;  // DNN jobs are never throttled
  } else {
    fp.is_gpu_job = false;
    // A CPU job shrunk by the eliminator moves proportionally less data.
    const double scale =
        spec.cpu_cores > 0
            ? static_cast<double>(st.cpus) / spec.cpu_cores
            : 1.0;
    fp.mem_bw_gbps = spec.mem_bw_gbps * std::min(1.0, scale);
    fp.pcie_gbps = 0.0;
    fp.llc_mb = spec.llc_mb;
    fp.bw_bound_fraction = spec.bw_bound_fraction;
  }
}

void ClusterEngine::mark_node_dirty(cluster::NodeId node) {
  if (!config_.incremental_recompute) {
    recompute_node(node);
    return;
  }
  // Rates are piecewise constant and integrated lazily, so progress must be
  // brought up to now() at exactly the instants the eager path would have
  // (each advance rounds; a different partition of the same interval gives
  // different low bits). All of this dispatch's later mutations happen at
  // the same now(), making the deferred recompute's advance a no-op.
  for (const Resident& r : jobs_on_node_[node]) {
    advance_progress(*r.job);
  }
  if (!node_dirty_[node]) {
    node_dirty_[node] = 1;
    dirty_nodes_.push_back(node);
  }
}

void ClusterEngine::flush_dirty_nodes() {
  if (dirty_nodes_.empty()) {
    return;
  }
  ++stats_.dirty_flushes;
  // Ascending node order keeps the recompute sequence — and with it the
  // finish-event insertion order — independent of mutation order.
  std::sort(dirty_nodes_.begin(), dirty_nodes_.end());
  for (cluster::NodeId node : dirty_nodes_) {
    node_dirty_[node] = 0;
    recompute_node(node);
  }
  dirty_nodes_.clear();
}

void ClusterEngine::recompute_node(cluster::NodeId node) {
  ++stats_.node_recomputes;
  std::vector<perfmodel::ResourceFootprint>& footprints = footprints_scratch_;
  footprints.clear();
  const std::vector<Resident>& residents = jobs_on_node_[node];
  for (const Resident& r : residents) {
    PerNodeState& st = *r.state;
    if (!st.footprint.is_gpu_job) {
      st.footprint.mem_bw_cap_gbps = mba_.cap(node, r.id);  // live MBA view
    }
    footprints.push_back(st.footprint);
  }
  contention_.resolve_into(cluster_.node(node).config(), footprints,
                           &node_reports_[node]);
  const auto& report = node_reports_[node];
  // resolve_into emits one row per footprint in input order, so the rows
  // zip with the resident list — no per-row job lookup.
  CODA_ASSERT(report.jobs.size() == residents.size());
  for (size_t i = 0; i < report.jobs.size(); ++i) {
    CODA_ASSERT(report.jobs[i].job == residents[i].id);
    PerNodeState& st = *residents[i].state;
    st.factors = report.jobs[i].factors;
    st.cpu_rate_factor = report.jobs[i].cpu_rate_factor;
    st.achieved_bw = report.jobs[i].achieved_bw_gbps;
    update_rate(*residents[i].job);
  }
  refresh_node_screen(node);
}

void ClusterEngine::refresh_node_screen(cluster::NodeId node) {
  const perfmodel::NodeContentionReport& report = node_reports_[node];
  const double cap = node_bw_caps_[node];
  double total = 0.0;
  if (cap > 0.0) {
    for (const auto& jc : report.jobs) {
      total += jc.achieved_bw_gbps;
    }
  }
  const double pressure = cap > 0.0 ? total / cap : 0.0;
  const bool occupied = !jobs_on_node_[node].empty();
  node_pressure_[node] = pressure;
  node_mem_load_[node] = occupied ? std::min(1.0, report.mem_pressure) : 0.0;
  const bool hot = occupied && pressure >= screen_floor_;
  if (hot != hot_nodes_.contains(node)) {
    if (hot) {
      hot_nodes_.insert(node);
    } else {
      hot_nodes_.erase(node);
    }
  }
}

void ClusterEngine::set_pressure_screen_floor(double floor) {
  screen_floor_ = floor;
  hot_nodes_.reset(cluster_.node_count());
  for (size_t n = 0; n < node_pressure_.size(); ++n) {
    if (!jobs_on_node_[n].empty() && node_pressure_[n] >= screen_floor_) {
      hot_nodes_.insert(static_cast<cluster::NodeId>(n));
    }
  }
}

void ClusterEngine::advance_progress(RunningJob& job) {
  const double dt = sim_.now() - job.last_update;
  if (dt > 0.0) {
    job.remaining = std::max(0.0, job.remaining - job.rate * dt);
    const double cores = static_cast<double>(job.placement.total_cpus());
    const double gpus = static_cast<double>(job.spec->total_gpus());
    job.busy_core_s += dt * cores;
    job.busy_gpu_s += dt * gpus;
    job.ckpt_busy_core_s += dt * cores;
    job.ckpt_busy_gpu_s += dt * gpus;
    if (job.spec->checkpointing()) {
      // Rates are piecewise constant between advance_progress calls, so the
      // last checkpoint boundary inside this segment can be reconstructed
      // exactly: `since` seconds ago, when `rate * since` less work was done.
      job.time_since_ckpt += dt;
      const double interval = job.spec->checkpoint_interval_s;
      if (job.time_since_ckpt >= interval) {
        const double since = std::fmod(job.time_since_ckpt, interval);
        job.ckpt_remaining = job.remaining + job.rate * since;
        job.time_since_ckpt = since;
        job.ckpt_busy_core_s = since * cores;
        job.ckpt_busy_gpu_s = since * gpus;
      }
    }
  }
  job.last_update = sim_.now();
}

void ClusterEngine::update_rate(RunningJob& job) {
  advance_progress(job);
  ++stats_.rate_updates;
  const double old_rate = job.rate;
  const workload::JobSpec& spec = *job.spec;
  if (spec.is_gpu_job()) {
    // The slowest node gates a synchronous data-parallel job.
    double iter = 0.0;
    double util = 1.0;
    for (auto& [node, st] : job.nodes) {
      const int cores = std::max(1, st.cpus);
      uint64_t prep_bits;
      uint64_t gpu_bits;
      std::memcpy(&prep_bits, &st.factors.prep_inflation, sizeof(prep_bits));
      std::memcpy(&gpu_bits, &st.factors.gpu_inflation, sizeof(gpu_bits));
      if (st.eval_cpus != cores || st.eval_prep_bits != prep_bits ||
          st.eval_gpu_bits != gpu_bits) {
        st.eval_iter = perf_.iter_time(spec.model, spec.train_config, cores,
                                       st.factors);
        st.eval_util = perf_.gpu_utilization(spec.model, spec.train_config,
                                             cores, st.factors);
        st.eval_prep = perf_.prep_time(spec.model, spec.train_config, cores,
                                       st.factors);
        st.eval_cpus = cores;
        st.eval_prep_bits = prep_bits;
        st.eval_gpu_bits = gpu_bits;
      }
      iter = std::max(iter, st.eval_iter);
      util = std::min(util, st.eval_util);
    }
    CODA_ASSERT(iter > 0.0);
    job.rate = 1.0 / iter;
    job.gpu_util = util;
  } else {
    const auto& st = job.nodes.front().second;
    job.rate = std::max(1, st.cpus) * st.cpu_rate_factor;
    job.gpu_util = 0.0;
  }
  if (spec.checkpointing() && spec.checkpoint_overhead_s > 0.0) {
    // Writing a checkpoint stalls compute for overhead_s out of every
    // interval_s of wall time; amortize the stall into the rate.
    job.rate *= spec.checkpoint_interval_s /
                (spec.checkpoint_interval_s + spec.checkpoint_overhead_s);
  }
  // The ledger rows read more than the rate (each leg's cores and prep
  // time), so they are rewritten even when the rate stays put.
  write_ledger(job);
  // An unchanged rate leaves the finish instant where it is: the pending
  // event's time equals now + remaining/rate in exact arithmetic (and with
  // LESS accumulated rounding — it was anchored when the rate last actually
  // changed). Skipping the cancel + re-push keeps neighbor-rate refreshes —
  // the bulk of recompute work on uncontended nodes — entirely off the heap.
  // Exact equality, not epsilon: a rate that moved even one ulp must move
  // its event, or determinism across recompute orders is lost.
  if (job.rate == old_rate && job.finish_event.pending()) {
    ++stats_.reschedules_skipped;
    return;
  }
  reschedule_finish(job);
}

void ClusterEngine::reschedule_finish(RunningJob& job) {
  job.finish_event.cancel();
  CODA_ASSERT(job.rate > 0.0);
  ++stats_.reschedules;
  const double dt = job.remaining / job.rate;
  job.finish_event = sim_.schedule_after(
      dt, simcore::EventTag{simcore::kTagJobFinish, job.id});
}

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

void ClusterEngine::write_ledger(RunningJob& job) {
  // Half a cache line: the tick streams the whole ledger every period.
  static_assert(sizeof(LedgerRow) == 32);
  // Recompute the job's row values into the per-leg cache first; the
  // ledger itself is searched and written only when one of them moved
  // (most rate updates are neighbor refreshes that leave every row as is).
  const workload::JobSpec& spec = *job.spec;
  bool changed = !job.in_ledger;
  for (size_t leg = 0; leg < job.nodes.size(); ++leg) {
    PerNodeState& st = job.nodes[leg].second;
    int cores = 0;
    int gpus = 0;
    double gpu_term = 0.0;
    double cpu_term = 0.0;
    if (spec.is_gpu_job()) {
      // GPU utilization is weighted per job (leg 0); busy cores per leg,
      // from the prep stage's share of an iteration. The prep time comes
      // from the eval cache, which update_rate refreshes just before this
      // call and load_state restores verbatim; no path writes (cpus,
      // factors) without a rate update following.
      uint64_t prep_bits;
      uint64_t gpu_bits;
      std::memcpy(&prep_bits, &st.factors.prep_inflation, sizeof(prep_bits));
      std::memcpy(&gpu_bits, &st.factors.gpu_inflation, sizeof(gpu_bits));
      CODA_ASSERT_MSG(st.eval_cpus == std::max(1, st.cpus) &&
                          st.eval_prep_bits == prep_bits &&
                          st.eval_gpu_bits == gpu_bits,
                      "ledger row from a stale eval cache");
      if (leg == 0) {
        gpus = spec.total_gpus();
        gpu_term = job.gpu_util * gpus;
      }
      const double iter = 1.0 / job.rate;
      cpu_term = st.cpus * std::min(1.0, st.eval_prep / iter);
      cores = st.cpus;
    } else if (leg == 0) {
      cpu_term = st.cpus * st.cpu_rate_factor;
      cores = st.cpus;
    }
    if (st.ledger_cores != cores || st.ledger_gpus != gpus ||
        !same_bits(st.ledger_gpu_term, gpu_term) ||
        !same_bits(st.ledger_cpu_term, cpu_term)) {
      st.ledger_cores = cores;
      st.ledger_gpus = gpus;
      st.ledger_gpu_term = gpu_term;
      st.ledger_cpu_term = cpu_term;
      changed = true;
    }
  }
  if (!changed) {
    return;
  }
  // A job's live rows precede any tombstones of its id, so the first row
  // at or above the id is its first live row (or where it goes).
  const size_t legs = job.nodes.size();
  auto it = std::lower_bound(
      ledger_.begin(), ledger_.end(), job.id,
      [](const LedgerRow& row, cluster::JobId id) { return row.job < id; });
  if (!job.in_ledger) {
    // Reuse a run of tombstones at the insertion point when it is long
    // enough: every row after it holds an id at or above theirs, so
    // relabelling them keeps the ledger sorted without moving its tail.
    size_t dead = 0;
    while (dead < legs && it + static_cast<std::ptrdiff_t>(dead) !=
                              ledger_.end() &&
           it[static_cast<std::ptrdiff_t>(dead)].dead) {
      ++dead;
    }
    if (dead == legs) {
      ledger_dead_ -= legs;
    } else {
      it = ledger_.insert(it, legs, LedgerRow{});
    }
    job.in_ledger = true;
  } else {
    CODA_ASSERT(static_cast<size_t>(ledger_.end() - it) >= legs &&
                it->job == job.id && !it->dead);
  }
  for (size_t leg = 0; leg < legs; ++leg, ++it) {
    const PerNodeState& st = job.nodes[leg].second;
    LedgerRow& row = *it;
    row.job = job.id;
    row.cores = st.ledger_cores;
    row.gpus = static_cast<int16_t>(st.ledger_gpus);
    row.dead = false;
    row.gpu_term = st.ledger_gpu_term;
    row.cpu_term = st.ledger_cpu_term;
  }
}

void ClusterEngine::erase_ledger(const RunningJob& job) {
  if (!job.in_ledger) {
    return;  // stopped before its first rate update
  }
  auto it = std::lower_bound(
      ledger_.begin(), ledger_.end(), job.id,
      [](const LedgerRow& row, cluster::JobId id) { return row.job < id; });
  for (size_t leg = 0; leg < job.nodes.size(); ++leg, ++it) {
    CODA_ASSERT(it != ledger_.end() && it->job == job.id && !it->dead);
    // Zero values keep the row bit-neutral in every tick sum; the id stays
    // so the ledger remains sorted until the tick compacts it away.
    *it = LedgerRow{};
    it->job = job.id;
    it->dead = true;
  }
  ledger_dead_ += job.nodes.size();
}

util::Status ClusterEngine::rearm_finish(double t, cluster::JobId id) {
  JobTable::Slot* slot = jobs_.find_slot(id);
  if (slot == nullptr || slot->running == nullptr) {
    return invalid_rearm(util::strfmt(
        "finish manifest entry for job %llu, which is not running",
        static_cast<unsigned long long>(id)));
  }
  if (slot->running->finish_event.pending()) {
    return invalid_rearm(util::strfmt(
        "second finish manifest entry for job %llu",
        static_cast<unsigned long long>(id)));
  }
  slot->running->finish_event =
      sim_.schedule_at(t, simcore::EventTag{simcore::kTagJobFinish, id});
  return util::Status::Ok();
}

// ----------------------------------------------------------------- probes

telemetry::NodeBandwidthSample ClusterEngine::sample(
    cluster::NodeId node) const {
  telemetry::NodeBandwidthSample s;
  sample_into(node, &s);
  return s;
}

void ClusterEngine::sample_into(cluster::NodeId node,
                                telemetry::NodeBandwidthSample* out) const {
  ensure_synced();
  out->node = node;
  out->capacity_gbps = cluster_.node(node).config().mem_bw_gbps;
  out->total_gbps = 0.0;
  out->jobs.clear();
  const auto& report = node_reports_[node];
  for (const auto& jc : report.jobs) {
    const JobTable::Slot* slot = jobs_.find_slot(jc.job);
    if (slot == nullptr || slot->running == nullptr) {
      continue;  // finished since the last recompute
    }
    telemetry::JobBandwidth jb;
    jb.job = jc.job;
    jb.is_gpu_job = slot->running->spec->is_gpu_job();
    jb.gbps = jc.achieved_bw_gbps;
    // Totalled from the surviving rows, not report.total_demand_gbps: a job
    // that finished since the last recompute must not haunt the probe.
    out->total_gbps += jb.gbps;
    out->jobs.push_back(jb);
  }
}

double ClusterEngine::pressure(cluster::NodeId node) const {
  // After the flush every report row is a live job (finish/evict mark the
  // node dirty), so the maintained row sum matches sample_into's
  // live-filtered total — same rows, same order, same bits.
  ensure_synced();
  return node_pressure_[node];
}

void ClusterEngine::pressure_screen(size_t node_count,
                                    std::vector<cluster::NodeId>* ids,
                                    std::vector<double>* out) const {
  // After the sync the hot set holds exactly the occupied nodes at or above
  // the floor; every other node reads below it (or +0.0 when empty).
  ensure_synced();
  ids->clear();
  out->clear();
  for (cluster::NodeId id = hot_nodes_.next_at_least(0);
       id != cluster::IdBitmap::kNone &&
       id < static_cast<cluster::NodeId>(node_count);
       id = hot_nodes_.next_at_least(id + 1)) {
    ids->push_back(id);
    out->push_back(node_pressure_[id]);
  }
}

double ClusterEngine::gpu_utilization(cluster::JobId job) const {
  ensure_synced();
  const JobTable::Slot* slot = jobs_.find_slot(job);
  if (slot == nullptr || slot->running == nullptr ||
      !slot->running->spec->is_gpu_job()) {
    return -1.0;
  }
  double util = slot->running->gpu_util;
  if (config_.util_noise_stddev > 0.0) {
    // Jittered probe: what a real 90 s utilization sample looks like.
    util *= 1.0 + noise_rng_.normal(0.0, config_.util_noise_stddev);
  }
  return std::clamp(util, 0.0, 1.0);
}

double ClusterEngine::expected_gpu_utilization(cluster::JobId job) const {
  ensure_synced();
  const JobTable::Slot* slot = jobs_.find_slot(job);
  if (slot == nullptr || slot->running == nullptr ||
      !slot->running->spec->is_gpu_job()) {
    return -1.0;
  }
  const RunningJob& r = *slot->running;
  double util = 1.0;
  for (const auto& [node, st] : r.nodes) {
    util = std::min(util, perf_.gpu_utilization(r.spec->model,
                                                r.spec->train_config,
                                                std::max(1, st.cpus)));
  }
  return util;
}

// ----------------------------------------------------------------- metrics

void ClusterEngine::sample_metrics() {
  flush_dirty_nodes();
  const double t = sim_.now();
  series_.gpu_active->add(t, cluster_.gpu_active_rate());
  series_.cpu_active->add(t, cluster_.cpu_active_rate());

  // Fragmentation (Sec. VI-C): idle GPUs that cannot serve even the most
  // easily placed pending GPU job. The paper's headline numbers are
  // *case 1* — the node has the GPUs but lacks CPU cores; *case 2* — the
  // node lacks enough adjacent GPUs — is tracked separately (the multi-array
  // scheduler is the paper's fix for it). Zero when nothing is pending: an
  // idle GPU without demand is spare capacity, not waste.
  double frag_cpu = 0.0;
  double frag_adjacency = 0.0;
  if (auto demand = scheduler_->min_pending_gpu_demand()) {
    // Adjacency is a pure sum over the (free_gpus < demand) buckets; failed
    // nodes sit at (0, 0) and count in neither term. The starved side only
    // needs nodes with free_gpus >= demand.gpus AND free_cpus <
    // demand.cpus — reclaimable_cpus() is a sum of core counts (never
    // negative), so a node with free_cpus >= demand.cpus is never starved —
    // and that candidate set is exactly the eviction-candidate bucket walk.
    // Integer sums are order-free, so bucket order is as good as id order.
    const auto& index = cluster_.placement_index();
    const long long adjacency =
        index.free_gpu_sum_below(demand->gpus_per_node);
    long long cpu_starved = 0;
    frag_scratch_.clear();
    index.collect_eviction_candidates(demand->gpus_per_node,
                                      demand->cpus_per_node, {},
                                      &frag_scratch_);
    for (const cluster::NodeId id : frag_scratch_) {
      const cluster::Node& node = cluster_.node(id);
      if (node.free_cpus() + scheduler_->reclaimable_cpus(id) <
          demand->cpus_per_node) {
        cpu_starved += node.free_gpus();
      }
    }
    frag_cpu = static_cast<double>(cpu_starved) / cluster_.total_gpus();
    frag_adjacency = static_cast<double>(adjacency) / cluster_.total_gpus();
  }
  series_.gpu_frag->add(t, frag_cpu);
  series_.gpu_frag_case2->add(t, frag_adjacency);
  series_.pending_jobs->add(
      t, static_cast<double>(scheduler_->pending_jobs()));
  series_.pending_gpu_jobs->add(
      t, static_cast<double>(scheduler_->pending_gpu_jobs()));

  // GPU utilization averaged over *active* GPUs (the paper's definition);
  // CPU utilization over active cores. The ledger rows are the running
  // jobs' terms in job-id order (the flush above made them current); the
  // +0.0 filler terms and zeroed tombstones are bit-neutral on these
  // non-negative sums. Once tombstones pass a quarter of the ledger, the
  // same pass compacts them away (a stable, order-keeping sweep).
  double gpu_util_weighted = 0.0;
  int active_gpus = 0;
  double cpu_busy = 0.0;
  int active_cores = 0;
  const bool compact = ledger_dead_ > 0 && ledger_dead_ * 4 >= ledger_.size();
  size_t kept = 0;
  for (size_t i = 0; i < ledger_.size(); ++i) {
    const LedgerRow row = ledger_[i];
    gpu_util_weighted += row.gpu_term;
    active_gpus += row.gpus;
    cpu_busy += row.cpu_term;
    active_cores += row.cores;
    if (compact && !row.dead) {
      ledger_[kept++] = row;
    }
  }
  if (compact) {
    ledger_.resize(kept);
    ledger_dead_ = 0;
  }
  series_.gpu_util_active->add(
      t, active_gpus > 0 ? gpu_util_weighted / active_gpus : 0.0);
  series_.cpu_util_active->add(
      t, active_cores > 0 ? cpu_busy / active_cores : 0.0);

  // Unoccupied nodes carry +0.0, so the id-order sum equals the sum over
  // occupied nodes alone.
  double pressure = 0.0;
  for (const double load : node_mem_load_) {
    pressure += load;
  }
  series_.mem_pressure->add(
      t, pressure / static_cast<double>(node_reports_.size()));

  // Hot-path accounting, republished as gauges so reports (and the micro
  // bench) can read cache effectiveness without new plumbing. The slots
  // resolve on the first tick and then every later tick is a plain store.
  if (gauges_.perf_cache_hits == nullptr) {
    gauges_.perf_cache_hits = &metrics_.gauge_ref("perf_cache_hits");
    gauges_.perf_cache_misses = &metrics_.gauge_ref("perf_cache_misses");
    gauges_.node_recomputes = &metrics_.gauge_ref("engine_node_recomputes");
    gauges_.rate_updates = &metrics_.gauge_ref("engine_rate_updates");
    gauges_.reschedules_skipped =
        &metrics_.gauge_ref("engine_reschedules_skipped");
    gauges_.dirty_flushes = &metrics_.gauge_ref("engine_dirty_flushes");
    gauges_.event_pool_live = &metrics_.gauge_ref("event_pool_live");
    gauges_.event_pool_slots_in_use =
        &metrics_.gauge_ref("event_pool_slots_in_use");
    gauges_.event_pool_slots_free =
        &metrics_.gauge_ref("event_pool_slots_free");
    gauges_.event_pool_chunks = &metrics_.gauge_ref("event_pool_chunks");
    gauges_.placement_index_probes =
        &metrics_.gauge_ref("placement_index_probes");
    gauges_.placement_index_rebuilds =
        &metrics_.gauge_ref("placement_index_rebuilds");
    gauges_.event_queue_depth = &metrics_.gauge_ref("event_queue_depth");
  }
  const perfmodel::TrainPerf::CacheStats& cs = perf_.cache_stats();
  *gauges_.perf_cache_hits = static_cast<double>(cs.hits);
  *gauges_.perf_cache_misses = static_cast<double>(cs.misses);
  *gauges_.node_recomputes = static_cast<double>(stats_.node_recomputes);
  *gauges_.rate_updates = static_cast<double>(stats_.rate_updates);
  *gauges_.reschedules_skipped =
      static_cast<double>(stats_.reschedules_skipped);
  *gauges_.dirty_flushes = static_cast<double>(stats_.dirty_flushes);
  // Event control-slot pool occupancy (steady-state allocs/event proxy:
  // chunks stops growing once the pool covers the live-event high-water
  // mark, after which push() allocates nothing).
  const simcore::EventPool::Stats ps = sim_.event_pool_stats();
  *gauges_.event_pool_live = static_cast<double>(ps.live_events);
  *gauges_.event_pool_slots_in_use = static_cast<double>(ps.slots_in_use);
  *gauges_.event_pool_slots_free = static_cast<double>(ps.slots_free);
  *gauges_.event_pool_chunks = static_cast<double>(ps.chunks);
  // Placement-index query volume and the queue's live depth: together they
  // say whether a slow shard is scheduler-bound (probes per event high) or
  // event-bound (deep queue).
  const cluster::PlacementIndex::Stats& is =
      cluster_.placement_index().stats();
  *gauges_.placement_index_probes = static_cast<double>(is.probes);
  *gauges_.placement_index_rebuilds = static_cast<double>(is.rebuilds);
  *gauges_.event_queue_depth = static_cast<double>(ps.live_events);
}

}  // namespace coda::sim
