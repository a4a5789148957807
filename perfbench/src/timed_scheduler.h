// Forwarding scheduler that times every call the engine makes into the
// policy scheduler and every call the scheduler makes back into the engine.
//
// The engine talks to its scheduler only through sched::Scheduler and the
// SchedulerEnv it hands over in attach(). TimedScheduler sits between the
// two: attach() swaps the env's telemetry sources and action callbacks for
// timed forwarding versions, then attaches the real scheduler to that env.
// Every call is forwarded unchanged, so a replay under the wrapper makes
// exactly the decisions it makes without it (the benchmark checks the
// report bytes). Only the wall clock is read; nothing timed feeds back.
#pragma once

#include <cstdint>

#include "sched/scheduler.h"
#include "spans.h"
#include "telemetry/mbm.h"

namespace perfbench {

// Span ids of every layer boundary the wrapper times.
struct LayerSpans {
  explicit LayerSpans(SpanRecorder* rec);
  SpanRecorder* rec;
  int kick, submit, finished, evicted;
  int start_job, resize_job, preempt_job, bw_cap;
  int pressure_screen, gpu_util, sample;
};

class TimedBandwidth final : public coda::telemetry::BandwidthSource {
 public:
  TimedBandwidth(const coda::telemetry::BandwidthSource* inner,
                 const LayerSpans* spans)
      : inner_(inner), spans_(spans) {}
  coda::telemetry::NodeBandwidthSample sample(
      coda::cluster::NodeId node) const override;
  void sample_into(coda::cluster::NodeId node,
                   coda::telemetry::NodeBandwidthSample* out) const override;
  double pressure(coda::cluster::NodeId node) const override;
  void pressure_screen(size_t node_count,
                       std::vector<coda::cluster::NodeId>* ids,
                       std::vector<double>* out) const override;

 private:
  const coda::telemetry::BandwidthSource* inner_;
  const LayerSpans* spans_;
};

class TimedGpuUtil final : public coda::telemetry::GpuUtilSource {
 public:
  TimedGpuUtil(const coda::telemetry::GpuUtilSource* inner,
               const LayerSpans* spans)
      : inner_(inner), spans_(spans) {}
  double gpu_utilization(coda::cluster::JobId job) const override;

 private:
  const coda::telemetry::GpuUtilSource* inner_;
  const LayerSpans* spans_;
};

class TimedScheduler final : public coda::sched::Scheduler {
 public:
  // `inner` is not owned and must outlive the wrapper.
  TimedScheduler(coda::sched::Scheduler* inner, SpanRecorder* rec);

  const char* name() const override { return inner_->name(); }
  void attach(const coda::sched::SchedulerEnv& env) override;
  void submit(const coda::workload::JobSpec& spec) override;
  void on_job_finished(const coda::workload::JobSpec& spec) override;
  void on_job_evicted(const coda::workload::JobSpec& spec) override;
  void kick() override;
  size_t pending_jobs() const override { return inner_->pending_jobs(); }
  size_t pending_gpu_jobs() const override {
    return inner_->pending_gpu_jobs();
  }
  std::optional<PendingGpuDemand> min_pending_gpu_demand() const override {
    return inner_->min_pending_gpu_demand();
  }
  int reclaimable_cpus(coda::cluster::NodeId node) const override {
    return inner_->reclaimable_cpus(node);
  }
  void save_state(coda::state::Writer* w) const override {
    inner_->save_state(w);
  }
  void load_state(coda::state::Reader* r,
                  const coda::sched::SpecMap& specs) override {
    inner_->load_state(r, specs);
  }

  const LayerSpans& spans() const { return spans_; }
  uint64_t kicks() const { return kicks_; }
  uint64_t starts_in_kicks() const { return starts_in_kicks_; }
  uint64_t probes_in_kicks() const { return probes_in_kicks_; }

 private:
  coda::sched::Scheduler* inner_;
  LayerSpans spans_;
  TimedBandwidth bandwidth_{nullptr, &spans_};
  TimedGpuUtil gpu_util_{nullptr, &spans_};
  const coda::cluster::Cluster* cluster_ = nullptr;
  bool in_kick_ = false;
  uint64_t kicks_ = 0;
  uint64_t starts_in_kicks_ = 0;
  uint64_t probes_in_kicks_ = 0;
};

}  // namespace perfbench
