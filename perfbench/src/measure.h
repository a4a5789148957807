// Measurement plumbing shared by the benchmark workloads: the metric
// catalog (names and units, which BENCHMARK.json must match), the result
// object that becomes the benchmark's last output line, and small
// statistics helpers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every metric a `--trace 0` run prints, in output order.
const std::vector<MetricDef>& end_to_end_metrics();
// Every metric a `--trace 1` run prints, in output order.
const std::vector<MetricDef>& per_layer_metrics();

// The result of one benchmark run. Metrics are set by name; the unit comes
// from the catalog. json() emits the contract's final line and fails (empty
// string) when a catalog metric of the requested mode was never set, or is
// zero or not finite: every metric must be non-zero in a healthy run.
class RunResult {
 public:
  explicit RunResult(bool traced) : traced_(traced) {}

  void set(const std::string& name, double value);
  double get(const std::string& name) const;

  // Records a failed output check; the run then reports correct=false.
  void check(bool ok, const std::string& what);
  const std::vector<std::string>& errors() const { return errors_; }
  bool correct() const { return errors_.empty(); }

  void add_attempted(uint64_t n) { attempted_ += n; }
  void add_failed(uint64_t n) { failed_ += n; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  std::string json() const;

 private:
  bool traced_;
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

double median(std::vector<double> v);
// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; +inf entries
// (failed requests) sort last. Empty samples return +inf.
double quantile(std::vector<double> v, double q);
// 64-bit FNV-1a digest, used to compare report bytes between runs.
uint64_t fnv1a(std::string_view bytes);
// Peak resident set size of this process, in MB.
double peak_rss_mb();

}  // namespace perfbench
