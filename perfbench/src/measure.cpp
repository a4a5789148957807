#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},
      {"replay_wall_s", "s"},
      {"events_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return kDefs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> kDefs = {
      {"workload.generate_s", "s"},
      {"simcore.events", "count"},
      {"simcore.events_per_step", "ratio"},
      {"simcore.event_pool_chunks", "count"},
      {"sim.event_step_s", "s"},
      {"sim.metrics_tick_s", "s"},
      {"sim.start_job_s", "s"},
      {"sim.start_job_n", "count"},
      {"sim.resize_job_s", "s"},
      {"sim.resize_job_n", "count"},
      {"sim.preempt_job_s", "s"},
      {"sim.preempt_job_n", "count"},
      {"sim.node_recomputes", "count"},
      {"sim.rate_updates", "count"},
      {"sim.reschedule_skip_ratio", "ratio"},
      {"sim.report_s", "s"},
      {"sim.load_trace_s", "s"},
      {"sim.self_s", "s"},
      {"telemetry.pressure_screen_s", "s"},
      {"telemetry.pressure_screen_n", "count"},
      {"telemetry.gpu_util_s", "s"},
      {"telemetry.gpu_util_n", "count"},
      {"telemetry.sample_s", "s"},
      {"telemetry.sample_n", "count"},
      {"coda.kick_s", "s"},
      {"coda.kick_n", "count"},
      {"coda.kick_self_s", "s"},
      {"coda.submit_s", "s"},
      {"coda.finished_s", "s"},
      {"coda.eliminator_tick_s", "s"},
      {"coda.starts_per_kick", "ratio"},
      {"coda.eliminator_checks", "count"},
      {"cluster.index_probes", "count"},
      {"cluster.probes_per_kick", "ratio"},
      {"cluster.index_generation", "count"},
      {"perfmodel.cache_hits", "count"},
      {"perfmodel.cache_hit_ratio", "ratio"},
      {"state.capture_s", "s"},
      {"state.parse_s", "s"},
      {"state.restore_s", "s"},
      {"state.snapshot_bytes", "bytes"},
      {"service.submit_p50_ms", "ms"},
      {"service.submit_p99_ms", "ms"},
      {"service.status_p99_ms", "ms"},
      {"service.max_submit_rate", "1/s"},
      {"service.protocol_parse_us", "us"},
      {"service.csv_parse_us", "us"},
      {"service.journal_append_us", "us"},
      {"service.journal_flush_us", "us"},
      {"service.commands_routed", "count"},
      {"service.gen_lag_p99_ms", "ms"},
      {"service.submit_residual_ms", "ms"},
      {"trace.untraced_wall_s", "s"},
      {"trace.traced_wall_s", "s"},
      {"trace.wrapper_wall_ratio", "ratio"},
      {"trace.traced_wall_ratio", "ratio"},
  };
  return kDefs;
}

namespace {

const MetricDef* find_def(const std::string& name) {
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *defs) {
      if (name == d.name) {
        return &d;
      }
    }
  }
  return nullptr;
}

}  // namespace

void RunResult::set(const std::string& name, double value) {
  if (find_def(name) == nullptr) {
    std::fprintf(stderr, "perfbench: metric '%s' is not in the catalog\n",
                 name.c_str());
    std::abort();
  }
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

double RunResult::get(const std::string& name) const {
  for (const auto& [n, v] : values_) {
    if (n == name) {
      return v;
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

void RunResult::check(bool ok, const std::string& what) {
  if (!ok) {
    errors_.push_back(what);
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
}

std::string RunResult::json() const {
  const auto& defs = traced_ ? per_layer_metrics() : end_to_end_metrics();
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const double v = get(d.name);
    if (!std::isfinite(v) || v == 0.0) {
      std::fprintf(stderr,
                   "perfbench: metric '%s' has no finite non-zero value\n",
                   d.name);
      return std::string();
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += first ? "" : ", ";
    first = false;
    out += "\"" + std::string(d.name) + "\": {\"value\": " + buf +
           ", \"unit\": \"" + d.unit + "\"}";
  }
  out += "}}";
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

uint64_t fnv1a(std::string_view bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace perfbench
