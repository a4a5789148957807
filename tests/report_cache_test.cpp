// Tests for the full-report serialization (report_io) and the on-disk
// content-addressed report cache: lossless round-trips, golden bytes, typed
// errors on corrupt input, hit/miss behaviour, key sensitivity to config
// changes, and corrupt-entry recovery.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "sim/report_cache.h"
#include "sim/report_io.h"
#include "workload/trace_gen.h"

namespace coda::sim {
namespace {

namespace fs = std::filesystem;

std::vector<workload::JobSpec> tiny_trace(uint64_t seed) {
  auto cfg = standard_week_trace(seed);
  cfg.duration_s = 4.0 * 3600.0;
  cfg.cpu_jobs = 50;
  cfg.gpu_jobs = 25;
  return workload::TraceGenerator(cfg).generate();
}

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.engine.cluster.node_count = 8;
  cfg.drain_slack_s = 86400.0;
  return cfg;
}

// CODA exercises every report field (tuning outcomes, eliminator stats,
// preemptions), so a CODA replay is the round-trip worst case.
ExperimentReport sample_report(uint64_t seed = 3) {
  return run_experiment(Policy::kCoda, tiny_trace(seed), tiny_config());
}

class TempCacheDir {
 public:
  explicit TempCacheDir(const char* name)
      : path_(fs::temp_directory_path() / name) {
    fs::remove_all(path_);
  }
  ~TempCacheDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

TEST(ReportSerialization, RoundTripIsLossless) {
  const auto report = sample_report();
  const std::string text = serialize_report(report);
  const auto parsed = deserialize_report(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;

  // Re-serializing the parsed report must reproduce the bytes exactly —
  // hexfloat encoding makes every double round-trip bit-for-bit.
  EXPECT_EQ(serialize_report(parsed.value()), text);

  const auto& r = parsed.value();
  EXPECT_EQ(r.scheduler, report.scheduler);
  EXPECT_EQ(r.submitted, report.submitted);
  EXPECT_EQ(r.completed, report.completed);
  EXPECT_EQ(r.events_dispatched, report.events_dispatched);
  EXPECT_EQ(r.records.size(), report.records.size());
  EXPECT_EQ(r.tuning_outcomes.size(), report.tuning_outcomes.size());
  EXPECT_EQ(r.gpu_active_series.size(), report.gpu_active_series.size());
  EXPECT_EQ(r.queue_by_tenant.size(), report.queue_by_tenant.size());
  EXPECT_DOUBLE_EQ(r.gpu_util_active, report.gpu_util_active);
  EXPECT_DOUBLE_EQ(r.frag_rate, report.frag_rate);
}

TEST(ReportSerialization, RejectsTruncatedAndGarbageInput) {
  EXPECT_FALSE(deserialize_report("").ok());
  EXPECT_FALSE(deserialize_report("not a report at all\n").ok());
  const std::string text = serialize_report(sample_report());
  EXPECT_FALSE(deserialize_report(text.substr(0, text.size() / 2)).ok());
}

// A small report that touches every token kind of the text format: the
// special doubles (signed zeros, subnormals, DBL_MIN/DBL_MAX, infinities,
// NaNs), extreme integers, and never-started (-1) times.
ExperimentReport golden_report() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double dmin = std::numeric_limits<double>::min();
  const double dmax = std::numeric_limits<double>::max();

  ExperimentReport r;
  r.scheduler = "CODA";
  r.submitted = 3;
  r.completed = 1;
  r.events_dispatched = std::numeric_limits<size_t>::max();
  r.horizon_s = 604800.0;
  r.abandoned = 1;
  r.node_failures = std::numeric_limits<int>::min();
  r.evictions = std::numeric_limits<int>::max();
  r.restarts = -1;
  r.busy_gpu_s = 0.1;
  r.busy_core_s = -0.0;
  r.wasted_gpu_s = tiny;
  r.wasted_core_s = -tiny;
  r.gpu_goodput = 1.0;
  r.cpu_goodput = 1.0 / 3.0;
  r.gpu_active_rate = dmin;
  r.gpu_util_active = dmax;
  r.gpu_util_overall = -dmax;
  r.cpu_active_rate = inf;
  r.cpu_util_active = -inf;
  r.frag_rate = nan;
  r.frag_case2_rate = -nan;
  r.gpu_active_when_queued = 0x1.fffffffffffffp-1;
  r.frag_when_queued = 0x0.fffffffffffffp-1022;  // largest subnormal
  r.queued_time_fraction = 1e-300;
  r.gpu_queue_times = {0.0, -0.0, 12.5, -1.0, 3.0e-310};
  r.cpu_queue_times = {};
  r.queue_by_tenant[0] = {1.0, 2.0};
  r.queue_by_tenant[std::numeric_limits<cluster::TenantId>::max()] = {-1.0};

  JobRecord started;
  started.spec.id = std::numeric_limits<uint64_t>::max();
  started.spec.tenant = 7;
  started.spec.kind = workload::JobKind::kGpuTraining;
  started.spec.submit_time = 100.25;
  started.spec.model = perfmodel::ModelId::kAlexnet;
  started.spec.train_config.nodes = 2;
  started.spec.train_config.gpus_per_node = 4;
  started.spec.train_config.batch_size = 256;
  started.spec.train_config.net_gbps = 100.0;
  started.spec.iterations = 1.5e6;
  started.spec.requested_cpus = 12;
  started.spec.hints.category_known = true;
  started.spec.hints.pipelined = true;
  started.spec.mem_bw_gbps = 0.7;
  started.spec.checkpoint_interval_s = 1800.0;
  started.spec.checkpoint_overhead_s = 30.0;
  started.submit_time = 100.25;
  started.first_start_time = 160.0;
  started.finish_time = 9000.5;
  started.queue_time_total = 59.75;
  started.preempt_count = 2;
  started.final_cpus = 6;
  started.completed = true;
  started.busy_core_s = 1e9;
  started.busy_gpu_s = 2.5e7;
  r.records.push_back(started);

  JobRecord never;
  never.spec.id = 0;
  never.spec.kind = workload::JobKind::kCpu;
  never.spec.submit_time = 5e5;
  never.spec.cpu_cores = 4;
  never.spec.cpu_work_core_s = 7200.0;
  never.spec.bw_bound_fraction = 0.3;
  never.spec.llc_mb = 11.0;
  never.spec.user_facing = true;
  never.submit_time = 5e5;
  never.queue_time_total = 104800.0;
  never.evict_count = 1;
  never.restart_count = 1;
  never.abandoned = true;
  never.wasted_core_s = 3.0e-320;
  r.records.push_back(never);

  core::CodaScheduler::TuningOutcome outcome;
  outcome.job = 1ull << 63;
  outcome.model = perfmodel::ModelId::kAlexnet;
  outcome.requested_cpus = 12;
  outcome.start_cpus = 3;
  outcome.final_cpus = 6;
  outcome.profile_steps = 4;
  r.tuning_outcomes.push_back(outcome);
  r.eliminator_stats.checks = 60480;
  r.eliminator_stats.nodes_over_threshold = 17;
  r.eliminator_stats.mba_throttles = 3;
  r.eliminator_stats.core_halvings = 1;
  r.eliminator_stats.releases = 2;
  r.preemptions = 2;
  r.migrations = 0;

  r.gpu_active_series.add(0.0, 0.0);
  r.gpu_active_series.add(60.0, 0.5);
  r.gpu_util_series.add(0.0, nan);
  r.cpu_active_series.add(-0.0, inf);
  r.cpu_util_series.add(60.0, -tiny);
  return r;
}

// The text the printf-based writer produced for golden_report(). A writer
// change that drifted the format would still round-trip through a parser
// changed the same way, so the bytes are pinned here.
const char* const kGoldenReportText =
    "CODA_REPORT 2\n"
    "scheduler CODA\n"
    "counts 3 1 18446744073709551615 2 0 1 -2147483648 2147483647 -1\n"
    "scalars 0x1.275p+19 0x1p-1022 0x1.fffffffffffffp+1023 -0x1.fffffffffffffp+1023 inf -inf nan -nan 0x1.fffffffffffffp-1 0x0.fffffffffffffp-1022 0x1.56e1fc2f8f359p-997 0x1.999999999999ap-4 -0x0p+0 0x0.0000000000001p-1022 -0x0.0000000000001p-1022 0x1p+0 0x1.5555555555555p-2\n"
    "eliminator 60480 17 3 1 2\n"
    "gpu_queue_times 5 0x0p+0 -0x0p+0 0x1.9p+3 -0x1p+0 0x0.03739a252b281p-1022\n"
    "cpu_queue_times 0\n"
    "tenants 2\n"
    "tenant 0 2 0x1p+0 0x1p+1\n"
    "tenant 4294967295 1 -0x1p+0\n"
    "records 2\n"
    "18446744073709551615 7 1 0x1.91p+6 0 2 4 256 0x1.9p+6 0x1.6e36p+20 12 1 1 0 0 1 0x0p+0 0x1.6666666666666p-1 0x0p+0 0x0p+0 0 0x1.c2p+10 0x1.ep+4 0x1.91p+6 0x1.4p+7 0x1.1944p+13 0x1.dep+5 2 6 1 0 0 0 0x1.dcd65p+29 0x1.7d784p+24 0x0p+0 0x0p+0\n"
    "0 0 0 0x1.e848p+18 0 1 1 0 0x1.4p+0 0x0p+0 1 1 0 0 0 4 0x1.c2p+12 0x0p+0 0x1.3333333333333p-2 0x1.6p+3 1 0x0p+0 0x0p+0 0x1.e848p+18 -0x1p+0 -0x1p+0 0x1.996p+16 0 0 0 1 1 1 0x0p+0 0x0p+0 0x0.00000000017b8p-1022 0x0p+0\n"
    "tuning_outcomes 1\n"
    "9223372036854775808 0 12 3 6 4\n"
    "series gpu_active 2 0x0p+0 0x0p+0 0x1.ep+5 0x1p-1\n"
    "series gpu_util 1 0x0p+0 nan\n"
    "series cpu_active 1 -0x0p+0 inf\n"
    "series cpu_util 1 0x1.ep+5 -0x0.0000000000001p-1022\n"
    "end\n";

TEST(ReportSerialization, GoldenBytes) {
  const std::string text = serialize_report(golden_report());
  EXPECT_EQ(text, kGoldenReportText);
  const auto parsed = deserialize_report(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(serialize_report(parsed.value()), text);
}

// Replaces the first occurrence of `from` (which must exist) with `to`.
std::string patched(std::string text, const std::string& from,
                    const std::string& to) {
  const size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  return pos == std::string::npos ? text : text.replace(pos, from.size(), to);
}

TEST(ReportSerialization, CorruptCountsAreParseErrorsNotExceptions) {
  const std::string text = serialize_report(golden_report());
  for (const auto& [from, to] : std::vector<std::pair<std::string, std::string>>{
           {"tenant 0 2 ", "tenant 1 -1 "},
           {"records 2\n", "records 99999999999999\n"},
           {"records 2\n", "records -2\n"},
           {"tenants 2\n", "tenants 99999999999999\n"},
           {"tuning_outcomes 1\n", "tuning_outcomes 99999999999999\n"},
           {"gpu_queue_times 5 ", "gpu_queue_times -5 "},
           {"series gpu_util 1 ", "series gpu_util 99999999999999 "},
           // Integers outside their field's type or enum range.
           {"CODA_REPORT 2\n", "CODA_REPORT 4294967298\n"},
           {"eliminator 60480 ", "eliminator 4294967296 "},
           {"18446744073709551615 7 1 ", "18446744073709551615 7 4294967297 "},
           {"18446744073709551615 7 1 ", "18446744073709551615 7 2 "},
           {"0x1.91p+6 0 2 4 256 ", "0x1.91p+6 8 2 4 256 "},
           {"0x1.91p+6 0 2 4 256 ", "0x1.91p+6 -1 2 4 256 "},
           {" 12 1 1 0 0 ", " 12 2 1 0 0 "},
           {" 12 1 1 0 0 ", " 12 99999999999999999999 1 0 0 "},
           {"9223372036854775808 0 12 ", "9223372036854775808 8 12 "},
       }) {
    const std::string corrupt = patched(text, from, to);
    util::Result<ExperimentReport> parsed = ExperimentReport{};
    ASSERT_NO_THROW(parsed = deserialize_report(corrupt)) << to;
    ASSERT_FALSE(parsed.ok()) << to;
    EXPECT_EQ(parsed.error().code, util::ErrorCode::kParseError) << to;
  }
}

TEST(ReportCacheKey, SensitiveToEveryInput) {
  const auto trace = tiny_trace(5);
  const auto cfg = tiny_config();
  const std::string base = experiment_cache_key(Policy::kCoda, trace, cfg);
  EXPECT_EQ(base.size(), 16u);

  // Policy change.
  EXPECT_NE(base, experiment_cache_key(Policy::kFifo, trace, cfg));

  // Any config knob change.
  auto cfg2 = cfg;
  cfg2.coda.eliminator.bw_threshold += 0.01;
  EXPECT_NE(base, experiment_cache_key(Policy::kCoda, trace, cfg2));
  auto cfg3 = cfg;
  cfg3.engine.metrics_period_s *= 2.0;
  EXPECT_NE(base, experiment_cache_key(Policy::kCoda, trace, cfg3));

  // Any trace change.
  auto trace2 = trace;
  trace2.back().submit_time += 1.0;
  EXPECT_NE(base, experiment_cache_key(Policy::kCoda, trace2, cfg));

  // Determinism: same inputs, same key.
  EXPECT_EQ(base, experiment_cache_key(Policy::kCoda, trace, cfg));
}

TEST(ReportCache, MissThenStoreThenHit) {
  TempCacheDir dir("coda_report_cache_test_hit");
  ReportCache cache(dir.path().string());
  ASSERT_TRUE(cache.enabled());

  const auto report = sample_report();
  const std::string key = "0123456789abcdef";
  EXPECT_FALSE(cache.load(key).has_value());

  ASSERT_TRUE(cache.store(key, report).ok());
  const auto hit = cache.load(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(serialize_report(*hit), serialize_report(report));

  // A different key is still a miss.
  EXPECT_FALSE(cache.load("fedcba9876543210").has_value());
}

TEST(ReportCache, CorruptEntryIsAMissAndGetsDeleted) {
  TempCacheDir dir("coda_report_cache_test_corrupt");
  ReportCache cache(dir.path().string());
  const auto report = sample_report();
  const std::string key = "00000000deadbeef";
  ASSERT_TRUE(cache.store(key, report).ok());

  // Flip one payload byte: the checksum must catch it.
  const std::string path = cache.path_for(key);
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(contents.size(), 64u);
  contents[contents.size() / 2] ^= 0x1;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  }
  EXPECT_FALSE(cache.load(key).has_value());
  // The corrupt file is removed so the next store can repopulate it.
  EXPECT_FALSE(fs::exists(path));

  // Outright garbage is likewise a silent miss.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "???" << std::endl;
  }
  EXPECT_FALSE(cache.load(key).has_value());

  // And the entry can be rebuilt.
  ASSERT_TRUE(cache.store(key, report).ok());
  EXPECT_TRUE(cache.load(key).has_value());
}

TEST(ReportCache, StaleSchemaVersionIsAMiss) {
  TempCacheDir dir("coda_report_cache_test_stale");
  ReportCache cache(dir.path().string());
  const std::string key = "0000000000000001";
  ASSERT_TRUE(cache.store(key, sample_report()).ok());

  // Rewrite the header with a schema version from "the future".
  const std::string path = cache.path_for(key);
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in), {});
  }
  const auto space = contents.find(' ');
  ASSERT_NE(space, std::string::npos);
  contents.replace(space + 1, 1, "9");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  }
  EXPECT_FALSE(cache.load(key).has_value());
}

TEST(ReportCache, NoCacheEnvDisablesEverything) {
  const char* saved = std::getenv("CODA_NO_CACHE");
  const std::string saved_value = saved != nullptr ? saved : "";
  ASSERT_EQ(setenv("CODA_NO_CACHE", "1", 1), 0);

  TempCacheDir dir("coda_report_cache_test_disabled");
  ReportCache cache(dir.path().string());
  EXPECT_FALSE(cache.enabled());

  if (saved != nullptr) {
    ASSERT_EQ(setenv("CODA_NO_CACHE", saved_value.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("CODA_NO_CACHE"), 0);
  }
}

TEST(ReportCache, DefaultDirHonoursEnvOverride) {
  const char* saved = std::getenv("CODA_CACHE_DIR");
  const std::string saved_value = saved != nullptr ? saved : "";

  ASSERT_EQ(setenv("CODA_CACHE_DIR", "/tmp/coda_cache_override", 1), 0);
  EXPECT_EQ(ReportCache::default_dir(), "/tmp/coda_cache_override");
  ASSERT_EQ(unsetenv("CODA_CACHE_DIR"), 0);
  EXPECT_EQ(ReportCache::default_dir(), ".report_cache");

  if (saved != nullptr) {
    ASSERT_EQ(setenv("CODA_CACHE_DIR", saved_value.c_str(), 1), 0);
  }
}

}  // namespace
}  // namespace coda::sim
