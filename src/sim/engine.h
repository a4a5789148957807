// ClusterEngine: the discrete-event simulation of the multi-tenant GPU
// cluster. Binds the cluster model, the DNN performance model, the
// contention model, simulated MBM/MBA telemetry and a pluggable scheduler
// into one runnable experiment.
//
// Mechanics: jobs carry total work (training iterations for GPU jobs,
// core-seconds for CPU jobs) and progress at piecewise-constant rates. Any
// event that changes a node's population or allocations (start, finish,
// preemption, resize, MBA cap) re-resolves that node's contention, updates
// the affected jobs' rates exactly (integrating progress up to now) and
// re-schedules their completion events. Everything is deterministic.
#pragma once

#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "perfmodel/contention.h"
#include "sim/event_log.h"
#include "util/rng.h"
#include "perfmodel/train_perf.h"
#include "sched/scheduler.h"
#include "simcore/simulator.h"
#include "telemetry/mba.h"
#include "telemetry/mbm.h"
#include "telemetry/metrics.h"
#include "workload/job.h"

namespace coda::state {
class Writer;
class Reader;
}  // namespace coda::state

namespace coda::oracle {
class EngineOracle;
}  // namespace coda::oracle

namespace coda::sim {

struct EngineConfig {
  cluster::ClusterConfig cluster;
  double metrics_period_s = 60.0;
  // A node's idle GPUs count as fragmented when fewer than this many cores
  // remain free beside them (Sec. VI-C, fragmentation case 1).
  int frag_min_cpus = 2;

  // Multiplicative Gaussian noise on the GPU-utilization *probe* (the
  // nvidia-smi stand-in): real 90-second utilization samples jitter, and
  // the adaptive allocator must survive that. 0 = noiseless. Noise only
  // affects what schedulers observe, never the true progress rates, and is
  // drawn deterministically from `noise_seed`.
  double util_noise_stddev = 0.0;
  uint64_t noise_seed = 12345;

  // Record every externally-visible scheduling action into an EventLog
  // (see sim/event_log.h). Off by default: a month-long replay produces
  // hundreds of thousands of events.
  bool record_events = false;

  // Batch node recomputes behind a dirty set drained once per dispatched
  // event (and lazily before any telemetry read) instead of re-resolving
  // contention on every placement/eviction/throttle mutation. Keep on; the
  // eager path exists as the bit-exact reference for the equivalence suite
  // (tests/perf_equivalence_test.cpp) and for debugging.
  bool incremental_recompute = true;
};

// Per-job lifecycle record; the raw material for every queueing/latency
// figure in the evaluation.
struct JobRecord {
  workload::JobSpec spec;
  double submit_time = 0.0;
  double first_start_time = -1.0;  // -1 while never started
  double finish_time = -1.0;       // -1 while unfinished
  double queue_time_total = 0.0;   // total time spent pending
  int preempt_count = 0;
  int final_cpus = 0;              // cores per node at finish
  bool completed = false;

  // ---- failure/recovery accounting ----
  int evict_count = 0;      // engine-forced evictions (node failures)
  int restart_count = 0;    // starts that followed an eviction
  bool abandoned = false;   // retry budget exhausted; never completed
  // Resource-seconds consumed while running, and the subset whose progress
  // was discarded by evictions (rolled back past a checkpoint, or lost
  // entirely without one). goodput = 1 - wasted / busy.
  double busy_core_s = 0.0;
  double busy_gpu_s = 0.0;
  double wasted_core_s = 0.0;
  double wasted_gpu_s = 0.0;

  // Queueing delay until the first start (the paper's queuing time).
  double initial_queue_time() const {
    return first_start_time >= 0.0 ? first_start_time - submit_time : -1.0;
  }
  double end_to_end_latency() const {
    return finish_time >= 0.0 ? finish_time - submit_time : -1.0;
  }
};

class ClusterEngine : public telemetry::BandwidthSource,
                      public telemetry::GpuUtilSource {
  struct RunningJob;  // private per-stint state, defined below

 public:
  // Every job the engine knows, one slot each: its record plus its
  // pending/remaining/running bookkeeping. Slots are appended in injection
  // order to chunked storage, so their addresses never move (a running
  // job's `spec` and the resident lists point into them); a hash index maps
  // id → slot and `order_` lists the slots in ascending id order, which is
  // the order records(), reports and snapshots walk. The public face is a
  // read-only, map-like view over (id, record) pairs.
  class JobTable {
   public:
    using value_type = std::pair<cluster::JobId, JobRecord>;

    class const_iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = JobTable::value_type;
      using difference_type = std::ptrdiff_t;
      using pointer = const value_type*;
      using reference = const value_type&;

      const_iterator() = default;
      reference operator*() const { return table_->slot_at(*pos_).entry; }
      pointer operator->() const { return &**this; }
      const_iterator& operator++() {
        ++pos_;
        return *this;
      }
      const_iterator operator++(int) {
        const_iterator old = *this;
        ++pos_;
        return old;
      }
      bool operator==(const const_iterator& o) const { return pos_ == o.pos_; }
      bool operator!=(const const_iterator& o) const { return pos_ != o.pos_; }

     private:
      friend class JobTable;
      const_iterator(const JobTable* table, const uint32_t* pos)
          : table_(table), pos_(pos) {}
      const JobTable* table_ = nullptr;
      const uint32_t* pos_ = nullptr;
    };

    size_t size() const { return order_.size(); }
    bool empty() const { return order_.empty(); }
    size_t count(cluster::JobId id) const { return index_.count(id); }
    // Throws std::out_of_range for an unknown id, as std::map::at does.
    const JobRecord& at(cluster::JobId id) const;
    const_iterator find(cluster::JobId id) const;
    const_iterator begin() const { return {this, order_.data()}; }
    const_iterator end() const {
      return {this, order_.data() + order_.size()};
    }

   private:
    friend class ClusterEngine;
    friend class oracle::EngineOracle;

    struct Slot {
      value_type entry;  // (id, record)
      std::unique_ptr<RunningJob> running;  // set while running
      double pending_since = 0.0;           // valid while `pending`
      double remaining_work = 0.0;          // valid while `has_remaining`
      bool pending = false;
      // Progress kept across a preemption or a checkpointed eviction: the
      // next start resumes from it instead of the job's total work.
      bool has_remaining = false;
    };
    static constexpr uint32_t kChunkBits = 10;
    static constexpr uint32_t kChunkSize = 1u << kChunkBits;

    Slot& slot_at(uint32_t i) const {
      return chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
    }
    // The job's slot, or nullptr when the id is unknown.
    Slot* find_slot(cluster::JobId id) const {
      auto it = index_.find(id);
      return it == index_.end() ? nullptr : &slot_at(it->second);
    }
    // First position in order_ whose id is not below `id`.
    std::vector<uint32_t>::const_iterator order_position(
        cluster::JobId id) const;
    // Appends a slot for a new id (the caller checked it is unknown).
    Slot& add(cluster::JobId id);
    void reserve(size_t jobs);

    // Own a fresh RunningJob in the slot / hand it back to the caller.
    RunningJob& set_running(Slot& s);
    std::unique_ptr<RunningJob> take_running(Slot& s);
    void set_pending(Slot& s, double since);
    void clear_pending(Slot& s);
    void set_remaining(Slot& s, double work);
    void clear_remaining(Slot& s);

    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::unordered_map<cluster::JobId, uint32_t> index_;
    std::vector<uint32_t> order_;  // slot indices in ascending id order
    // Occupancy counts for the snapshot's pending/remaining/running lines.
    size_t pending_count_ = 0;
    size_t remaining_count_ = 0;
    size_t running_count_ = 0;
  };

  // `restore_mode` constructs the engine for state::restore_session: the
  // metrics periodic is not scheduled here (the snapshot manifest re-arms
  // it at its exact next firing time) and the scheduler's attach() sees
  // SchedulerEnv::defer_periodics so its own periodics wait for re-arming
  // too. A restore-mode engine must be populated via load_state before use.
  ClusterEngine(const EngineConfig& config, sched::Scheduler* scheduler,
                bool restore_mode = false);
  ~ClusterEngine() override;

  ClusterEngine(const ClusterEngine&) = delete;
  ClusterEngine& operator=(const ClusterEngine&) = delete;

  // Registers a whole trace: arrival events are scheduled at each job's
  // submit_time. Call before run().
  void load_trace(const std::vector<workload::JobSpec>& trace);

  // Injects a single job arriving at time `t` (>= now). Tests/examples.
  void inject(const workload::JobSpec& spec, double t);

  // ---- failure injection ----
  // Fails a node now: every resident job is evicted (progress rolls back to
  // its last checkpoint, or to zero for non-checkpointing jobs), the
  // scheduler is notified per job via on_job_evicted, and the node accepts
  // no allocations until recover_node. Multi-node jobs die wholesale (gang
  // semantics). Fails with kFailedPrecondition if the node is already down.
  util::Status fail_node(cluster::NodeId node);
  // Brings a failed node back and kicks the scheduler.
  util::Status recover_node(cluster::NodeId node);
  // Convenience: schedules a fail at `at` and a recovery `outage_s` later.
  void schedule_node_outage(cluster::NodeId node, double at,
                            double outage_s);
  int node_failures() const { return node_failures_; }

  // Runs the simulation until simulated time `until`.
  void run_until(double until);
  // Keeps running until every submitted job finished (or was abandoned by
  // the retry policy) or `hard_cap` is hit.
  void drain(double hard_cap);

  simcore::Simulator& sim() { return sim_; }
  const simcore::Simulator& sim() const { return sim_; }
  cluster::Cluster& cluster() { return cluster_; }
  const cluster::Cluster& cluster() const { return cluster_; }
  const telemetry::MetricRegistry& metrics() const { return metrics_; }
  const JobTable& records() const { return jobs_; }
  size_t running_jobs() const { return jobs_.running_count_; }
  size_t finished_jobs() const { return finished_count_; }
  size_t abandoned_jobs() const { return abandoned_count_; }
  const EventLog& event_log() const { return event_log_; }
  const perfmodel::TrainPerf& perf() const { return perf_; }

  // Hot-path accounting (events/sec companions; see bench_engine_micro).
  // Republished as metric counters every metrics tick.
  struct EngineStats {
    uint64_t node_recomputes = 0;      // contention re-resolutions
    uint64_t rate_updates = 0;         // per-job rate recomputations
    uint64_t reschedules = 0;          // finish events (re)scheduled
    uint64_t reschedules_skipped = 0;  // rate unchanged -> event kept
    uint64_t dirty_flushes = 0;        // dirty-set drains that did work
  };
  const EngineStats& engine_stats() const { return stats_; }

  // ---- telemetry interfaces (simulated MBM / nvidia-smi) ----
  telemetry::NodeBandwidthSample sample(cluster::NodeId node) const override;
  void sample_into(cluster::NodeId node,
                   telemetry::NodeBandwidthSample* out) const override;
  double pressure(cluster::NodeId node) const override;
  // Whole-cluster screen: one sync, then (id, pressure) rows for the hot
  // set — every occupied node at or above the screen floor registered
  // through SchedulerEnv::set_pressure_screen_floor (floor 0 until one is
  // registered, which lists every occupied node). An unlisted node reads
  // below the floor, or exactly +0.0 when it hosts nothing. The hot set is
  // maintained where contention reports change, so the eliminator's
  // per-tick screen costs O(hot nodes), not O(occupied) or O(cluster).
  void pressure_screen(size_t node_count,
                       std::vector<cluster::NodeId>* ids,
                       std::vector<double>* out) const override;
  double gpu_utilization(cluster::JobId job) const override;

  // No-contention utilization a running GPU job should reach with its
  // current cores (the eliminator's reference); -1 for unknown jobs.
  double expected_gpu_utilization(cluster::JobId job) const;

  // ---- snapshot support (src/state, engine_state.cpp) ----
  // Serializes the complete mutable engine state at a quiescent point
  // (between event dispatches, dirty nodes flushed): job records, running
  // jobs with their exact progress/rate/eval-cache state, node allocations
  // and failure flags, contention reports, MBA caps, metrics, RNG stream
  // and the event log. Pending simulator events are NOT serialized here —
  // they go into the snapshot's re-arm manifest (simulator pending_events).
  void save_state(state::Writer* w) const;
  // Mirror image; `specs` maps job ids back to full JobSpecs (the engine
  // stores state by id). `version` is the snapshot container version: a v2
  // body's parallel-flush stats and engine_parallel_* counters are parsed
  // and discarded. Requires a restore-mode-constructed engine with no trace
  // loaded. The caller re-arms manifest events afterwards.
  util::Status load_state(state::Reader* r,
                          const std::map<cluster::JobId,
                                         workload::JobSpec>& specs,
                          uint64_t version);
  // Re-arm helpers: re-post one pending simulator event recorded in a
  // snapshot manifest at its exact absolute time (>= now, checked by the
  // caller). Each validates its operands against the restored state and
  // fails with kInvalidArgument instead of scheduling an event that could
  // not dispatch: an arrival for an unknown job, a finish for a job that is
  // not running (or already has one), an outage (kind kTagNodeFail or
  // kTagNodeRecover) for a node outside the cluster, a second metrics tick.
  util::Status rearm_arrival(double t, cluster::JobId id);
  util::Status rearm_finish(double t, cluster::JobId id);
  util::Status rearm_outage(double t, uint32_t kind, uint64_t node);
  util::Status rearm_metrics_tick(double first);

  // Mutable registry access for host-layer counters (the service daemon
  // accounts snapshot/restore operations next to the engine's own metrics).
  telemetry::MetricRegistry& metrics_mut() { return metrics_; }

 private:
  // Reference implementations of the incremental ticks (tests/oracle) walk
  // the private job state the ticks used to scan.
  friend class oracle::EngineOracle;

  struct PerNodeState {
    int cpus = 0;
    perfmodel::ResourceFootprint footprint;
    perfmodel::ContentionFactors factors;
    double cpu_rate_factor = 1.0;
    double achieved_bw = 0.0;
    // One-entry eval cache: iter/util at (cpus, exact factor bits). A
    // neighbor's recompute usually leaves this job's inputs untouched, and
    // the bit-compare then skips even the perf model's memo hashtable.
    int eval_cpus = -1;
    uint64_t eval_prep_bits = 0;
    uint64_t eval_gpu_bits = 0;
    double eval_iter = 0.0;
    double eval_util = 0.0;
    double eval_prep = 0.0;  // prep-stage time; metrics ticks read it
    // This leg's metrics-ledger row values as last written (write_ledger
    // compares against them and skips the ledger when nothing moved).
    int ledger_cores = 0;
    int ledger_gpus = 0;
    double ledger_gpu_term = 0.0;
    double ledger_cpu_term = 0.0;
  };

  struct RunningJob {
    cluster::JobId id = 0;
    const workload::JobSpec* spec = nullptr;  // owned by the job's slot
    sched::Placement placement;
    // Per-node state, sorted by node id (the recompute/serialize iteration
    // order). Flat storage: a job has at most a handful of legs, so a
    // contiguous vector beats a node-based map on every hot iteration. The
    // vector is built to its final size in start_job/load_state *before*
    // any Resident caches a PerNodeState address, and legs never change
    // count afterwards, so those addresses stay stable.
    std::vector<std::pair<cluster::NodeId, PerNodeState>> nodes;
    double remaining = 0.0;    // iterations (GPU) or core-seconds (CPU)
    double rate = 0.0;         // per simulated second
    double last_update = 0.0;
    double gpu_util = 0.0;     // cached, refreshed on every rate update
    simcore::EventHandle finish_event;

    // ---- checkpoint state (per running stint) ----
    // `remaining` at the last durable point: the stint's start, or the most
    // recent checkpoint boundary crossed since. Eviction rolls back here.
    double ckpt_remaining = 0.0;
    double time_since_ckpt = 0.0;  // running seconds past that point
    // Resource-seconds this stint (flushed into the JobRecord at stop),
    // and since the last durable point (the wasted-work charge on evict).
    double busy_core_s = 0.0;
    double busy_gpu_s = 0.0;
    double ckpt_busy_core_s = 0.0;
    double ckpt_busy_gpu_s = 0.0;
    // The job has live rows in the metrics ledger (set by the first
    // write_ledger of this stint).
    bool in_ledger = false;
  };

  // Scheduler-facing callbacks (wired into SchedulerEnv).
  util::Status start_job(cluster::JobId id, const sched::Placement& p);
  util::Status preempt_job(cluster::JobId id, bool keep_progress);
  // Shared stop-and-release path behind preempt_job and fail_node.
  util::Status stop_running_job(cluster::JobId id, bool keep_progress);
  util::Status resize_job(cluster::JobId id, cluster::NodeId node,
                          int new_cpus);

  void on_arrival(cluster::JobId id);
  void finish_job(cluster::JobId id);
  // Shared tail of the stop and finish paths: takes the running job out of
  // its slot, removes it from its nodes (resident lists, allocations, MBA
  // caps), tombstones its ledger rows and marks its nodes dirty.
  void release_running(JobTable::Slot& slot);
  // Scheduler gave up on an evicted job (retry cap). Closes accounting.
  void abandon_job(cluster::JobId id);

  // The job's state on `node`, or nullptr when it holds nothing there.
  // Linear scan: jobs span at most a few legs.
  static PerNodeState* node_state(RunningJob& job, cluster::NodeId node);
  // Rebuilds the job's shared-resource footprint on one node (after a start
  // or a core-count change there).
  void rebuild_footprint(RunningJob& job, cluster::NodeId node);
  // Re-resolves contention on a node and updates every resident job's rate.
  void recompute_node(cluster::NodeId node);
  // Marks a node's contention state stale after a mutation. Incremental
  // mode integrates resident jobs' progress now (rates are piecewise
  // constant, so the integration points must match the eager path bit for
  // bit) and defers the recompute to flush_dirty_nodes(); eager mode
  // recomputes immediately.
  void mark_node_dirty(cluster::NodeId node);
  // Drains the dirty set in ascending node order. Runs after every event
  // dispatch and lazily (via ensure_synced) before any read that consumes
  // rates or contention reports.
  void flush_dirty_nodes();
  // Const probes (telemetry samples, snapshot save) sync derived state
  // through this wrapper: observable semantics match the eager path, hence
  // the logical constness lives here, in one documented const_cast, instead
  // of being smeared across flush_dirty_nodes itself.
  void ensure_synced() const {
    const_cast<ClusterEngine*>(this)->flush_dirty_nodes();
  }
  void update_rate(RunningJob& job);
  void advance_progress(RunningJob& job);
  void reschedule_finish(RunningJob& job);
  double total_work_of(const workload::JobSpec& spec) const;

  void sample_metrics();

  EngineConfig config_;
  sched::Scheduler* scheduler_;
  simcore::Simulator sim_;
  cluster::Cluster cluster_;
  perfmodel::TrainPerf perf_;
  perfmodel::NodeContentionModel contention_;
  telemetry::MbaController mba_;
  telemetry::MetricRegistry metrics_;
  mutable util::Rng noise_rng_;
  EventLog event_log_;

  JobTable jobs_;
  // One resident job on one node. Caches the RunningJob and PerNodeState
  // addresses (stable: the RunningJob is heap-owned by its slot and its
  // per-node vector never reallocates) so the recompute path
  // never pays the two map lookups per resident; entries are removed before
  // the owning RunningJob is erased.
  struct Resident {
    cluster::JobId id = 0;
    RunningJob* job = nullptr;
    PerNodeState* state = nullptr;
  };
  // Jobs resident on each node (GPU jobs may appear on several nodes).
  std::vector<std::vector<Resident>> jobs_on_node_;
  // Per-node memory bandwidth capacity, copied out of the immutable node
  // configs at construction (the pressure denominator).
  std::vector<double> node_bw_caps_;
  // Last contention report per node (backs the MBM sample()).
  std::vector<perfmodel::NodeContentionReport> node_reports_;

  // ---- incremental tick aggregates (derived state, never serialized) ----
  // Each is refreshed by refresh_node_screen wherever node_reports_[id] is
  // written (recompute_node, load_state), so after any sync they agree with
  // a from-scratch scan.
  //
  // node_pressure_[id]: the report's achieved-bandwidth row sum over the
  // node's capacity — exactly what pressure(id) returns.
  std::vector<double> node_pressure_;
  // node_mem_load_[id]: min(1, report mem_pressure) for occupied nodes,
  // +0.0 otherwise — the metrics tick's mem-pressure mean sums this array
  // in id order (zeros are bit-neutral on a non-negative sum).
  std::vector<double> node_mem_load_;
  // Occupied nodes whose pressure is at or above screen_floor_: exactly
  // what pressure_screen lists. The floor is the one registered via
  // SchedulerEnv::set_pressure_screen_floor (0 until then).
  cluster::IdBitmap hot_nodes_;
  double screen_floor_ = 0.0;
  void refresh_node_screen(cluster::NodeId node);
  void set_pressure_screen_floor(double floor);

  // The metrics tick's per-job terms, one row per (running job, leg) and
  // sorted by (job id, leg) — the order of an id-ordered walk over the
  // running jobs, so summing the rows feeds every accumulator the same
  // terms in the same sequence. update_rate rewrites a job's rows when
  // their values change; the stop paths tombstone them (zeroed in place,
  // bit-neutral in every sum) and the metrics tick compacts the tombstones
  // away once they pass a quarter of the ledger; load_state rebuilds the
  // ledger. A job's live rows always precede tombstones of the same id.
  struct LedgerRow {
    cluster::JobId job = 0;
    int32_t cores = 0;      // leg cores
    int16_t gpus = 0;       // job GPUs on leg 0, else 0
    bool dead = false;      // tombstone: every value is zero
    double gpu_term = 0.0;  // gpu_util * gpus on leg 0, else +0.0
    double cpu_term = 0.0;  // busy cores this leg contributes
  };
  std::vector<LedgerRow> ledger_;
  size_t ledger_dead_ = 0;  // tombstoned rows in ledger_
  void write_ledger(RunningJob& job);
  void erase_ledger(const RunningJob& job);

  // Scratch buffer for recompute_node (reused across calls to avoid a
  // per-event allocation on the hottest engine path).
  std::vector<perfmodel::ResourceFootprint> footprints_scratch_;

  // Scratch for sample_metrics' index-backed fragmentation walk (candidate
  // node ids with enough free GPUs but possibly too few cores).
  std::vector<cluster::NodeId> frag_scratch_;

  // Dirty-node batching (incremental_recompute): per-node staleness bits
  // plus the insertion list flushed (sorted) once per event dispatch.
  std::vector<uint8_t> node_dirty_;
  std::vector<cluster::NodeId> dirty_nodes_;

  EngineStats stats_;

  // Metric series resolved once at construction; sample_metrics runs every
  // tick and must not pay a map<string> lookup per series.
  struct MetricSeries {
    util::TimeSeries* gpu_active = nullptr;
    util::TimeSeries* cpu_active = nullptr;
    util::TimeSeries* gpu_frag = nullptr;
    util::TimeSeries* gpu_frag_case2 = nullptr;
    util::TimeSeries* pending_jobs = nullptr;
    util::TimeSeries* pending_gpu_jobs = nullptr;
    util::TimeSeries* gpu_util_active = nullptr;
    util::TimeSeries* cpu_util_active = nullptr;
    util::TimeSeries* mem_pressure = nullptr;
  };
  MetricSeries series_;

  // Gauge slots resolved lazily on the first metrics tick (not in the
  // constructor: gauges live in the serialized counters map, and creating
  // them before the first tick would change pre-tick snapshot bytes).
  // Stores through these pointers replace a string construction plus map
  // lookup per gauge per tick — sample_metrics is allocation-free.
  struct MetricGauges {
    double* perf_cache_hits = nullptr;
    double* perf_cache_misses = nullptr;
    double* node_recomputes = nullptr;
    double* rate_updates = nullptr;
    double* reschedules_skipped = nullptr;
    double* dirty_flushes = nullptr;
    double* event_pool_live = nullptr;
    double* event_pool_slots_in_use = nullptr;
    double* event_pool_slots_free = nullptr;
    double* event_pool_chunks = nullptr;
    double* placement_index_probes = nullptr;
    double* placement_index_rebuilds = nullptr;
    double* event_queue_depth = nullptr;
  };
  MetricGauges gauges_;

  size_t finished_count_ = 0;
  size_t abandoned_count_ = 0;
  size_t submitted_count_ = 0;
  int node_failures_ = 0;
};

}  // namespace coda::sim
