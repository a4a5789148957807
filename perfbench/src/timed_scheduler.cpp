#include "timed_scheduler.h"

namespace perfbench {

using namespace coda;

LayerSpans::LayerSpans(SpanRecorder* r)
    : rec(r),
      kick(r->id("coda.kick")),
      submit(r->id("coda.submit")),
      finished(r->id("coda.finished")),
      evicted(r->id("coda.evicted")),
      start_job(r->id("sim.start_job")),
      resize_job(r->id("sim.resize_job")),
      preempt_job(r->id("sim.preempt_job")),
      bw_cap(r->id("sim.bw_cap")),
      pressure_screen(r->id("telemetry.pressure_screen")),
      gpu_util(r->id("telemetry.gpu_util")),
      sample(r->id("telemetry.sample")) {}

telemetry::NodeBandwidthSample TimedBandwidth::sample(
    cluster::NodeId node) const {
  Span s(spans_->rec, spans_->sample);
  return inner_->sample(node);
}

void TimedBandwidth::sample_into(cluster::NodeId node,
                                 telemetry::NodeBandwidthSample* out) const {
  Span s(spans_->rec, spans_->sample);
  inner_->sample_into(node, out);
}

double TimedBandwidth::pressure(cluster::NodeId node) const {
  Span s(spans_->rec, spans_->sample);
  return inner_->pressure(node);
}

void TimedBandwidth::pressure_screen(size_t node_count,
                                     std::vector<cluster::NodeId>* ids,
                                     std::vector<double>* out) const {
  Span s(spans_->rec, spans_->pressure_screen);
  inner_->pressure_screen(node_count, ids, out);
}

double TimedGpuUtil::gpu_utilization(cluster::JobId job) const {
  Span s(spans_->rec, spans_->gpu_util);
  return inner_->gpu_utilization(job);
}

TimedScheduler::TimedScheduler(sched::Scheduler* inner, SpanRecorder* rec)
    : inner_(inner), spans_(rec) {}

void TimedScheduler::attach(const sched::SchedulerEnv& env) {
  Scheduler::attach(env);
  cluster_ = env.cluster;
  sched::SchedulerEnv timed = env;
  bandwidth_ = TimedBandwidth(env.bandwidth, &spans_);
  gpu_util_ = TimedGpuUtil(env.gpu_util, &spans_);
  timed.bandwidth = &bandwidth_;
  timed.gpu_util = &gpu_util_;
  timed.start_job = [this, fn = env.start_job](cluster::JobId id,
                                               const sched::Placement& p) {
    if (in_kick_) {
      ++starts_in_kicks_;
    }
    Span s(spans_.rec, spans_.start_job);
    return fn(id, p);
  };
  timed.resize_job = [this, fn = env.resize_job](cluster::JobId id,
                                                 cluster::NodeId node,
                                                 int cpus) {
    Span s(spans_.rec, spans_.resize_job);
    return fn(id, node, cpus);
  };
  timed.preempt_job = [this, fn = env.preempt_job](cluster::JobId id,
                                                   bool keep) {
    Span s(spans_.rec, spans_.preempt_job);
    return fn(id, keep);
  };
  timed.set_bw_cap = [this, fn = env.set_bw_cap](cluster::NodeId node,
                                                 cluster::JobId id,
                                                 double cap) {
    Span s(spans_.rec, spans_.bw_cap);
    return fn(node, id, cap);
  };
  inner_->attach(timed);
}

void TimedScheduler::submit(const workload::JobSpec& spec) {
  Span s(spans_.rec, spans_.submit);
  inner_->submit(spec);
}

void TimedScheduler::on_job_finished(const workload::JobSpec& spec) {
  Span s(spans_.rec, spans_.finished);
  inner_->on_job_finished(spec);
}

void TimedScheduler::on_job_evicted(const workload::JobSpec& spec) {
  Span s(spans_.rec, spans_.evicted);
  inner_->on_job_evicted(spec);
}

void TimedScheduler::kick() {
  const uint64_t probes0 = cluster_->placement_index().stats().probes;
  ++kicks_;
  in_kick_ = true;
  {
    Span s(spans_.rec, spans_.kick);
    inner_->kick();
  }
  in_kick_ = false;
  probes_in_kicks_ += cluster_->placement_index().stats().probes - probes0;
}

}  // namespace perfbench
