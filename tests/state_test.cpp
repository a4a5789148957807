// Tests for the snapshot subsystem (src/state): serde primitives, the
// snapshot container, durable file plumbing, and the headline property —
// a session snapshotted at ANY event boundary and restored must finish
// with the exact report bytes of the session that was never interrupted.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "coda/coda_scheduler.h"
#include "perfmodel/contention.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/report_io.h"
#include "state/serde.h"
#include "state/snapshot.h"
#include "util/rng.h"
#include "util/timeseries.h"
#include "workload/trace_gen.h"

namespace coda::state {
namespace {

// ----------------------------------------------------------------- serde

TEST(Serde, WriterReaderRoundTripsEveryValueKind) {
  Writer w;
  const double ugly = -0x1.91eb851eb851fp+1;  // no finite decimal expansion
  w.line("mixed", ugly, uint64_t{0xFFFFFFFFFFFFFFF0ull}, int64_t{-42}, true,
         std::string_view("token"));
  w.line("blob_bytes", size_t{5});
  w.raw("ab\ncd");
  w.line("tail", 0.0);

  Reader r(w.text());
  ASSERT_TRUE(r.expect("mixed"));
  const double back = r.f64();
  EXPECT_EQ(std::memcmp(&back, &ugly, sizeof(double)), 0);  // bit-exact
  EXPECT_EQ(r.u64(), 0xFFFFFFFFFFFFFFF0ull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.b());
  EXPECT_EQ(r.token(), "token");
  ASSERT_TRUE(r.expect("blob_bytes"));
  const uint64_t n = r.u64();
  EXPECT_EQ(r.bytes(n), "ab\ncd");  // raw blob may contain newlines
  ASSERT_TRUE(r.expect("tail"));
  EXPECT_EQ(r.f64(), 0.0);
  EXPECT_TRUE(r.ok());
}

TEST(Serde, ReaderPoisonsOnMismatchAndStaysPoisoned) {
  Writer w;
  w.line("alpha", 1.0);
  w.line("beta", 2.0);
  Reader r(w.text());
  EXPECT_FALSE(r.expect("gamma"));  // wrong key
  EXPECT_FALSE(r.ok());
  // Every later getter is a zero-value no-op; loops guarded on ok() stop.
  EXPECT_EQ(r.f64(), 0.0);
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_FALSE(r.expect("beta"));
  EXPECT_FALSE(r.status().ok());
}

TEST(Serde, ReaderPoisonsOnMissingTokenAndTruncatedBlob) {
  {
    Reader r("solo 1\n");
    ASSERT_TRUE(r.expect("solo"));
    EXPECT_EQ(r.u64(), 1u);
    EXPECT_EQ(r.u64(), 0u);  // no second token on the line
    EXPECT_FALSE(r.ok());
  }
  {
    Reader r("blob 10\nshort\n");
    ASSERT_TRUE(r.expect("blob"));
    const uint64_t n = r.u64();
    EXPECT_EQ(n, 10u);
    r.bytes(n);  // only 6 bytes remain
    EXPECT_FALSE(r.ok());
  }
  {
    Reader r("num abc\n");
    ASSERT_TRUE(r.expect("num"));
    r.f64();
    EXPECT_FALSE(r.ok());
  }
}

TEST(Serde, I32RejectsValuesOutsideInt) {
  // An int field must not wrap: 2^32 + 1 used to restore as 1.
  for (const char* text : {"x 4294967297\n", "x -2147483649\n"}) {
    Reader r(text);
    ASSERT_TRUE(r.expect("x"));
    EXPECT_EQ(r.i32(), 0) << text;
    EXPECT_FALSE(r.ok()) << text;
    EXPECT_NE(r.status().error().message.find("out of range"),
              std::string::npos);
  }
  Reader r("x 2147483647 -2147483648\n");
  ASSERT_TRUE(r.expect("x"));
  EXPECT_EQ(r.i32(), 2147483647);
  EXPECT_EQ(r.i32(), -2147483647 - 1);
  EXPECT_TRUE(r.ok());
}

// ------------------------------------------------------------- container

TEST(Snapshot, ParseRejectsCorruptContainers) {
  EXPECT_FALSE(parse_snapshot("").ok());
  EXPECT_FALSE(parse_snapshot("NOT_A_SNAPSHOT 1\n").ok());
  // Right magic, wrong version.
  EXPECT_FALSE(parse_snapshot("CODA_SNAPSHOT 99\n").ok());
  // Truncated embedded session blob.
  EXPECT_FALSE(parse_snapshot("CODA_SNAPSHOT 1\n"
                              "meta 1 0x1p+0 0 0 0\n"
                              "session_bytes 100\nshort")
                   .ok());
}

TEST(Snapshot, FindLatestSnapshotPicksMaxSequence) {
  const std::string stem =
      "/tmp/coda_state_test_latest_" +
      std::to_string(static_cast<long long>(::getpid())) + ".journal.SNAP.";
  EXPECT_EQ(find_latest_snapshot(stem).error().code,
            util::ErrorCode::kNotFound);
  ASSERT_TRUE(write_file_durable(stem + "2", "two").ok());
  ASSERT_TRUE(write_file_durable(stem + "10", "ten").ok());
  ASSERT_TRUE(write_file_durable(stem + "9", "nine").ok());
  // Non-numeric suffixes are not snapshots and must be ignored.
  ASSERT_TRUE(write_file_durable(stem + "10.tmp", "junk").ok());
  auto latest = find_latest_snapshot(stem);
  ASSERT_TRUE(latest.ok()) << latest.error().message;
  EXPECT_EQ(*latest, stem + "10");  // numeric, not lexicographic, order
  for (const char* suffix : {"2", "10", "9", "10.tmp"}) {
    std::remove((stem + suffix).c_str());
  }
}

TEST(Snapshot, WriteFileDurableReplacesAtomically) {
  const std::string path =
      "/tmp/coda_state_test_durable_" +
      std::to_string(static_cast<long long>(::getpid()));
  ASSERT_TRUE(write_file_durable(path, "first contents").ok());
  ASSERT_TRUE(write_file_durable(path, "second").ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  const size_t n = std::fread(buf, 1, sizeof(buf), f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), "second");
  // No temp sibling left behind.
  struct stat st {};
  EXPECT_NE(::stat((path + ".tmp").c_str(), &st), 0);
  std::remove(path.c_str());
}

// ------------------------------------------------------ sizeof tripwires
//
// save_state/load_state enumerate these structs field by field. Growing
// one without teaching the serializer silently drops the new field from
// snapshots — restored sessions would diverge. If a size below changes,
// update sim/engine_state.cpp (and the scheduler/state serializers) AND
// this expectation in the same commit.

TEST(Snapshot, SerializedStructSizeTripwires) {
  EXPECT_EQ(sizeof(sim::JobRecord), 224u);
  EXPECT_EQ(sizeof(sim::ClusterEngine::EngineStats), 40u);
  EXPECT_EQ(sizeof(perfmodel::ResourceFootprint), 80u);
  EXPECT_EQ(sizeof(perfmodel::ContentionFactors), 16u);
  EXPECT_EQ(sizeof(perfmodel::JobContention), 40u);
  EXPECT_EQ(sizeof(perfmodel::NodeContentionReport), 56u);
  EXPECT_EQ(sizeof(util::TimePoint), 16u);
  EXPECT_EQ(sizeof(SnapshotMeta), 40u);
}

// ----------------------------------------- snapshot/restore determinism

struct OfflineSession {
  sim::PolicyScheduler scheduler;
  std::unique_ptr<sim::ClusterEngine> engine;
};

OfflineSession start_session(sim::Policy policy,
                             const sim::ExperimentConfig& config,
                             const std::vector<workload::JobSpec>& trace) {
  OfflineSession s;
  s.scheduler = sim::make_policy_scheduler(policy, config);
  s.engine = std::make_unique<sim::ClusterEngine>(config.engine,
                                                  s.scheduler.scheduler.get());
  s.engine->load_trace(trace);
  sim::schedule_failures(s.engine.get(), config, config.horizon_s);
  return s;
}

std::string finish_and_report(sim::Policy policy,
                              const sim::ExperimentConfig& config,
                              size_t submitted, sim::PolicyScheduler& ps,
                              sim::ClusterEngine& engine) {
  engine.run_until(config.horizon_s);
  engine.drain(config.horizon_s + config.drain_slack_s);
  return sim::serialize_report(
      sim::build_report(policy, engine, submitted, config.horizon_s,
                        ps.coda));
}

// Snapshot `session` at its current clock and rebuild it from the blob.
util::Result<RestoredSession> snapshot_and_restore(
    sim::Policy policy, const sim::ExperimentConfig& config,
    const std::vector<workload::JobSpec>& trace,
    const OfflineSession& session) {
  SnapshotMeta meta;
  meta.seq = 1;
  meta.virtual_time = session.engine->sim().now();
  meta.dispatched = session.engine->sim().dispatched();
  auto blob = capture_snapshot(meta, "offline", *session.engine,
                               *session.scheduler.scheduler);
  if (!blob.ok()) {
    return blob.error();
  }
  auto parsed = parse_snapshot(*blob);
  if (!parsed.ok()) {
    return parsed.error();
  }
  EXPECT_EQ(parsed->session_text, "offline");
  return restore_session(*parsed, policy, config, trace);
}

TEST(Snapshot, RestoreAtRandomCutsReproducesReportBytes) {
  // The subsystem's headline property, randomized: pick a session with
  // every replay-relevant mechanism enabled at random (retry backoff,
  // Poisson node outages, utilization noise, any policy), cut it at a
  // random virtual time, snapshot/restore, and finish both twins. The
  // serialized reports — every counter, time series and per-job record —
  // must match byte for byte.
  util::Rng rng(0xC0DA5EED);
  for (int iter = 0; iter < 6; ++iter) {
    auto trace_cfg = sim::standard_week_trace(1000 + iter);
    trace_cfg.duration_s = 2.0 * 3600.0;
    trace_cfg.cpu_jobs = static_cast<int>(rng.uniform_int(20, 50));
    trace_cfg.gpu_jobs = static_cast<int>(rng.uniform_int(10, 30));
    const auto trace = workload::TraceGenerator(trace_cfg).generate();

    const auto policy = static_cast<sim::Policy>(rng.uniform_int(0, 2));
    sim::ExperimentConfig config;
    config.horizon_s = trace_cfg.duration_s;
    config.drain_slack_s = 86400.0;
    config.engine.cluster.node_count = static_cast<int>(rng.uniform_int(4, 10));
    config.engine.util_noise_stddev = rng.bernoulli(0.5) ? 0.05 : 0.0;
    config.engine.noise_seed = rng.next_u64();
    config.engine.record_events = rng.bernoulli(0.5);
    config.retry.enabled = rng.bernoulli(0.7);
    config.retry.backoff_base_s = 30.0;
    config.retry.max_retries = 3;
    if (rng.bernoulli(0.7)) {
      config.failures.node_mtbf_s = 1800.0;
      config.failures.outage_s = 300.0;
      config.failures.seed = rng.next_u64();
    }

    // Twin A runs straight through; twin B is cut mid-flight.
    OfflineSession uninterrupted = start_session(policy, config, trace);
    OfflineSession cut = start_session(policy, config, trace);
    const double cut_vt = rng.uniform(0.0, config.horizon_s);
    cut.engine->run_until(cut_vt);

    auto restored = snapshot_and_restore(policy, config, trace, cut);
    ASSERT_TRUE(restored.ok())
        << "iter " << iter << " cut_vt " << cut_vt << ": "
        << restored.error().message;
    EXPECT_EQ(restored->engine->sim().now(), cut.engine->sim().now());
    EXPECT_EQ(restored->engine->sim().dispatched(),
              cut.engine->sim().dispatched());

    const std::string want = finish_and_report(
        policy, config, trace.size(), uninterrupted.scheduler,
        *uninterrupted.engine);
    const std::string got =
        finish_and_report(policy, config, trace.size(), restored->scheduler,
                          *restored->engine);
    EXPECT_EQ(got, want) << "iter " << iter << " policy "
                         << sim::to_string(policy) << " cut_vt " << cut_vt;
  }
}

TEST(Snapshot, RestoreDuringDrainReproducesReportBytes) {
  // Cut *past* the horizon, mid-drain: retries, backoff timers and finish
  // events are in flight with no new arrivals. The restored twin must
  // still drain to identical bytes.
  auto trace_cfg = sim::standard_week_trace(77);
  trace_cfg.duration_s = 2.0 * 3600.0;
  trace_cfg.cpu_jobs = 30;
  trace_cfg.gpu_jobs = 15;
  const auto trace = workload::TraceGenerator(trace_cfg).generate();
  sim::ExperimentConfig config;
  config.horizon_s = trace_cfg.duration_s;
  config.drain_slack_s = 86400.0;
  config.engine.cluster.node_count = 6;
  config.retry.enabled = true;
  config.failures.node_mtbf_s = 1800.0;
  config.failures.outage_s = 300.0;

  OfflineSession uninterrupted = start_session(sim::Policy::kCoda, config,
                                               trace);
  OfflineSession cut = start_session(sim::Policy::kCoda, config, trace);
  // Both twins run the same 600s past the horizon (periodics keep ticking
  // under run_until; only drain() stops with the last job) — the cut twin
  // is then snapshotted inside that window.
  uninterrupted.engine->run_until(config.horizon_s + 600.0);
  cut.engine->run_until(config.horizon_s + 600.0);

  auto restored =
      snapshot_and_restore(sim::Policy::kCoda, config, trace, cut);
  ASSERT_TRUE(restored.ok()) << restored.error().message;

  const std::string want = finish_and_report(
      sim::Policy::kCoda, config, trace.size(), uninterrupted.scheduler,
      *uninterrupted.engine);
  const std::string got = finish_and_report(
      sim::Policy::kCoda, config, trace.size(), restored->scheduler,
      *restored->engine);
  EXPECT_EQ(got, want);
}

// Rewrites a v3 capture into the v2 layout: the version line, four zero
// parallel-flush counters on the engine stats line, and the two
// engine_parallel_* gauges every v2 session published.
std::string as_v2_snapshot(std::string v3) {
  auto replace_once = [&v3](const std::string& from, const std::string& to) {
    const size_t pos = v3.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    if (pos != std::string::npos) {
      v3.replace(pos, from.size(), to);
    }
  };
  replace_once("CODA_SNAPSHOT 3\n", "CODA_SNAPSHOT 2\n");
  const size_t stats = v3.find("\nstats ");
  EXPECT_NE(stats, std::string::npos);
  v3.insert(v3.find('\n', stats + 1), " 0 0 0 0");
  const size_t counters = v3.find("\ncounters ");
  EXPECT_NE(counters, std::string::npos);
  const size_t count_begin = counters + std::string("\ncounters ").size();
  const size_t count_end = v3.find('\n', count_begin);
  const uint64_t n =
      std::stoull(v3.substr(count_begin, count_end - count_begin));
  Writer extra;
  extra.line("ctr", "engine_parallel_flush_nodes", 0.0);
  extra.line("ctr", "engine_parallel_flushes", 0.0);
  v3.replace(count_begin, count_end - count_begin, std::to_string(n + 2));
  v3.insert(v3.find('\n', count_begin) + 1, extra.text());
  return v3;
}

TEST(Snapshot, V2SnapshotRestoresByteIdentically) {
  // A v2 snapshot (taken before the parallel flush was removed) must still
  // restore, drain to the uninterrupted report, and re-capture exactly the
  // bytes a v3 capture of the same session holds.
  auto trace_cfg = sim::standard_week_trace(11);
  trace_cfg.duration_s = 2.0 * 3600.0;
  trace_cfg.cpu_jobs = 30;
  trace_cfg.gpu_jobs = 15;
  const auto trace = workload::TraceGenerator(trace_cfg).generate();
  sim::ExperimentConfig config;
  config.horizon_s = trace_cfg.duration_s;
  config.drain_slack_s = 86400.0;
  config.engine.cluster.node_count = 6;
  const sim::Policy policy = sim::Policy::kCoda;

  OfflineSession uninterrupted = start_session(policy, config, trace);
  OfflineSession cut = start_session(policy, config, trace);
  cut.engine->run_until(0.5 * config.horizon_s);
  // The gauges exist from the first metrics tick on.
  ASSERT_GT(cut.engine->metrics().counters().size(), 0u);

  SnapshotMeta meta;
  meta.seq = 1;
  meta.virtual_time = cut.engine->sim().now();
  meta.dispatched = cut.engine->sim().dispatched();
  auto v3 = capture_snapshot(meta, "offline", *cut.engine,
                             *cut.scheduler.scheduler);
  ASSERT_TRUE(v3.ok()) << v3.error().message;
  const std::string v2 = as_v2_snapshot(*v3);
  ASSERT_NE(v2, *v3);

  auto parsed = parse_snapshot(v2);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed->version, 2u);
  auto restored = restore_session(*parsed, policy, config, trace);
  ASSERT_TRUE(restored.ok()) << restored.error().message;

  auto again = capture_snapshot(meta, "offline", *restored->engine,
                                *restored->scheduler.scheduler);
  ASSERT_TRUE(again.ok()) << again.error().message;
  EXPECT_EQ(*again, *v3);

  const std::string want = finish_and_report(
      policy, config, trace.size(), uninterrupted.scheduler,
      *uninterrupted.engine);
  const std::string got = finish_and_report(
      policy, config, trace.size(), restored->scheduler, *restored->engine);
  EXPECT_EQ(got, want);
}

TEST(Snapshot, RestoreThenLiveInjectionMatchesDirectInjection) {
  // The service's restore path injects the journal tail into a restored
  // engine. Equivalent offline: injecting a job after restore must match
  // injecting the same job into the never-interrupted twin.
  auto trace_cfg = sim::standard_week_trace(7);
  trace_cfg.duration_s = 3600.0;
  trace_cfg.cpu_jobs = 20;
  trace_cfg.gpu_jobs = 10;
  const auto trace = workload::TraceGenerator(trace_cfg).generate();
  sim::ExperimentConfig config;
  config.horizon_s = trace_cfg.duration_s;
  config.drain_slack_s = 86400.0;
  config.engine.cluster.node_count = 4;

  workload::JobSpec extra;
  extra.id = 1000000;
  extra.kind = workload::JobKind::kCpu;
  extra.cpu_cores = 3;
  extra.cpu_work_core_s = 900.0;
  extra.mem_bw_gbps = 1.0;
  extra.llc_mb = 2.0;
  const double inject_t = 1800.0;
  extra.submit_time = inject_t;

  auto with_extra = trace;
  with_extra.push_back(extra);

  OfflineSession uninterrupted =
      start_session(sim::Policy::kDrf, config, trace);
  OfflineSession cut = start_session(sim::Policy::kDrf, config, trace);
  const double cut_vt = 1200.0;
  uninterrupted.engine->run_until(cut_vt);
  cut.engine->run_until(cut_vt);

  // Restore against the trace that includes the future injection — the
  // service builds this list from the embedded journal + tail.
  auto restored =
      snapshot_and_restore(sim::Policy::kDrf, config, with_extra, cut);
  ASSERT_TRUE(restored.ok()) << restored.error().message;

  uninterrupted.engine->inject(extra, inject_t);
  restored->engine->inject(extra, inject_t);

  const std::string want = finish_and_report(
      sim::Policy::kDrf, config, trace.size() + 1, uninterrupted.scheduler,
      *uninterrupted.engine);
  const std::string got = finish_and_report(
      sim::Policy::kDrf, config, trace.size() + 1, restored->scheduler,
      *restored->engine);
  EXPECT_EQ(got, want);
}

// Live throttle records held by a CODA session's eliminator, read back
// from its own serialized state.
uint64_t live_throttles(const core::CodaScheduler& coda) {
  Writer w;
  coda.eliminator().save_state(&w);
  Reader r(w.text());
  r.expect("elim_stats");
  for (int i = 0; i < 5; ++i) {
    (void)r.i32();
  }
  r.expect("elim_throttled");
  const uint64_t n = r.u64();
  EXPECT_TRUE(r.ok());
  return n;
}

TEST(Snapshot, RestoreWithLiveThrottlesReproducesReportAndSeries) {
  // Cut while the eliminator holds throttles (release extension on, so
  // the restored pass must merge throttled nodes back into its screen).
  // The hot-node set, pressure array and metrics ledger are derived state:
  // never serialized, rebuilt on load. So the restored twin must finish
  // with the uninterrupted run's report and series bytes, and a snapshot
  // taken right after the restore must equal the one it came from.
  auto trace_cfg = sim::standard_week_trace(41);
  trace_cfg.duration_s = 6.0 * 3600.0;
  trace_cfg.cpu_jobs = 160;
  trace_cfg.gpu_jobs = 40;
  trace_cfg.heavy_bw_cpu_fraction = 0.4;
  const auto trace = workload::TraceGenerator(trace_cfg).generate();
  sim::ExperimentConfig config;
  config.horizon_s = trace_cfg.duration_s;
  config.drain_slack_s = 86400.0;
  config.engine.cluster.node_count = 6;
  config.engine.util_noise_stddev = 0.05;
  config.coda.eliminator.release_when_calm = true;

  OfflineSession uninterrupted =
      start_session(sim::Policy::kCoda, config, trace);
  OfflineSession cut = start_session(sim::Policy::kCoda, config, trace);
  double cut_vt = 0.0;
  while (live_throttles(*cut.scheduler.coda) == 0 &&
         cut_vt < config.horizon_s) {
    cut_vt += 300.0;
    cut.engine->run_until(cut_vt);
  }
  ASSERT_GT(live_throttles(*cut.scheduler.coda), 0u)
      << "trace never produced a live throttle";

  SnapshotMeta meta;
  meta.seq = 1;
  meta.virtual_time = cut.engine->sim().now();
  meta.dispatched = cut.engine->sim().dispatched();
  auto blob = capture_snapshot(meta, "offline", *cut.engine,
                               *cut.scheduler.scheduler);
  ASSERT_TRUE(blob.ok()) << blob.error().message;
  auto parsed = parse_snapshot(*blob);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  auto restored =
      restore_session(*parsed, sim::Policy::kCoda, config, trace);
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  EXPECT_EQ(live_throttles(*restored->scheduler.coda),
            live_throttles(*cut.scheduler.coda));

  auto again = capture_snapshot(meta, "offline", *restored->engine,
                                *restored->scheduler.scheduler);
  ASSERT_TRUE(again.ok()) << again.error().message;
  EXPECT_EQ(*again, *blob);

  const std::string want = finish_and_report(
      sim::Policy::kCoda, config, trace.size(), uninterrupted.scheduler,
      *uninterrupted.engine);
  const std::string got = finish_and_report(
      sim::Policy::kCoda, config, trace.size(), restored->scheduler,
      *restored->engine);
  EXPECT_EQ(got, want) << "cut_vt " << cut_vt;
  const auto& want_series = uninterrupted.engine->metrics().all_series();
  const auto& got_series = restored->engine->metrics().all_series();
  ASSERT_EQ(got_series.size(), want_series.size());
  for (const auto& [name, series] : want_series) {
    const auto it = got_series.find(name);
    ASSERT_NE(it, got_series.end()) << name;
    const auto& a = series.points();
    const auto& b = it->second.points();
    ASSERT_EQ(b.size(), a.size()) << name;
    EXPECT_EQ(std::memcmp(b.data(), a.data(), a.size() * sizeof(a[0])), 0)
        << name;
  }
  EXPECT_GT(uninterrupted.scheduler.coda->eliminator_stats().releases, 0);
}

// Job ids of the `key` lines of a snapshot body, in file order.
std::vector<cluster::JobId> snapshot_ids(const std::string& text,
                                         const std::string& key) {
  std::vector<cluster::JobId> ids;
  const std::string prefix = key + " ";
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) {
      end = text.size();
    }
    if (text.compare(pos, prefix.size(), prefix) == 0) {
      ids.push_back(std::strtoull(text.c_str() + pos + prefix.size(),
                                  nullptr, 10));
    }
    pos = end + 1;
  }
  return ids;
}

TEST(Snapshot, JobTableFollowsIdOrderForOutOfOrderIds) {
  // Ids injected out of order and far apart land in the engine's job table
  // in injection (slot) order; records(), every per-job snapshot section
  // and a restore must still follow ascending id.
  sim::ExperimentConfig config;
  config.horizon_s = 3600.0;
  config.drain_slack_s = 86400.0;
  config.engine.cluster.node_count = 3;
  const std::vector<cluster::JobId> ids = {5, 2, (1ull << 63) + 1, 3,
                                           9, 7, 11, 4};
  std::vector<workload::JobSpec> trace;
  for (size_t i = 0; i < ids.size(); ++i) {
    workload::JobSpec spec;
    spec.id = ids[i];
    spec.kind = workload::JobKind::kCpu;
    spec.cpu_cores = 14;  // two per 28-core node: six run, two wait
    spec.cpu_work_core_s = 14.0 * 7200.0;
    spec.mem_bw_gbps = 1.0 + static_cast<double>(i);
    spec.llc_mb = 2.0;
    spec.checkpoint_interval_s = 60.0;
    spec.submit_time = static_cast<double>(i);
    trace.push_back(spec);
  }
  OfflineSession session = start_session(sim::Policy::kFifo, config, trace);
  session.engine->run_until(200.0);
  // Evict node 0's two jobs: they keep checkpointed progress (the
  // snapshot's `remaining` lines) and wait with the two never started.
  ASSERT_TRUE(session.engine->fail_node(0).ok());
  session.engine->run_until(300.0);

  std::vector<cluster::JobId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  const auto& records = session.engine->records();
  std::vector<cluster::JobId> walked;
  for (const auto& [id, record] : records) {
    EXPECT_EQ(record.spec.id, id);
    walked.push_back(id);
  }
  EXPECT_EQ(walked, sorted);
  EXPECT_EQ(records.size(), ids.size());
  for (const cluster::JobId id : ids) {
    EXPECT_EQ(records.count(id), 1u);
    EXPECT_EQ(records.at(id).spec.id, id);
    ASSERT_NE(records.find(id), records.end());
    EXPECT_EQ(records.find(id)->first, id);
  }
  EXPECT_EQ(records.count(6), 0u);
  EXPECT_EQ(records.find(6), records.end());
  EXPECT_THROW((void)records.at(6), std::out_of_range);

  SnapshotMeta meta;
  meta.seq = 1;
  meta.virtual_time = session.engine->sim().now();
  meta.dispatched = session.engine->sim().dispatched();
  auto blob = capture_snapshot(meta, "offline", *session.engine,
                               *session.scheduler.scheduler);
  ASSERT_TRUE(blob.ok()) << blob.error().message;
  EXPECT_EQ(snapshot_ids(*blob, "rec"), sorted);
  for (const char* key : {"pend", "rem", "run"}) {
    const std::vector<cluster::JobId> listed = snapshot_ids(*blob, key);
    EXPECT_GE(listed.size(), 2u) << key;
    EXPECT_TRUE(std::is_sorted(listed.begin(), listed.end())) << key;
  }

  auto parsed = parse_snapshot(*blob);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  auto restored =
      restore_session(*parsed, sim::Policy::kFifo, config, trace);
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  auto again = capture_snapshot(meta, "offline", *restored->engine,
                                *restored->scheduler.scheduler);
  ASSERT_TRUE(again.ok()) << again.error().message;
  EXPECT_EQ(*again, *blob);
}

TEST(Snapshot, RestoreRejectsUnknownJobIds) {
  // A snapshot referencing a job id absent from the supplied trace means
  // the embedded session and the state section disagree — fail loudly
  // instead of restoring a half-session.
  auto trace_cfg = sim::standard_week_trace(3);
  trace_cfg.duration_s = 3600.0;
  trace_cfg.cpu_jobs = 10;
  trace_cfg.gpu_jobs = 5;
  const auto trace = workload::TraceGenerator(trace_cfg).generate();
  sim::ExperimentConfig config;
  config.horizon_s = trace_cfg.duration_s;
  config.engine.cluster.node_count = 4;

  OfflineSession session = start_session(sim::Policy::kFifo, config, trace);
  session.engine->run_until(600.0);

  SnapshotMeta meta;
  meta.seq = 1;
  meta.virtual_time = session.engine->sim().now();
  meta.dispatched = session.engine->sim().dispatched();
  auto blob = capture_snapshot(meta, "", *session.engine,
                               *session.scheduler.scheduler);
  ASSERT_TRUE(blob.ok()) << blob.error().message;
  auto parsed = parse_snapshot(*blob);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;

  const std::vector<workload::JobSpec> empty_trace;
  auto restored =
      restore_session(*parsed, sim::Policy::kFifo, config, empty_trace);
  EXPECT_FALSE(restored.ok());
}

TEST(Snapshot, RestoreRejectsPlacementCountsBeyondTheCluster) {
  // A running job's placement count sizes reserves before its rows parse.
  // A count larger than the cluster is corrupt input: restore must report
  // a parse error, not throw length_error/bad_alloc or allocate for it.
  auto trace_cfg = sim::standard_week_trace(3);
  trace_cfg.duration_s = 3600.0;
  trace_cfg.cpu_jobs = 10;
  trace_cfg.gpu_jobs = 5;
  const auto trace = workload::TraceGenerator(trace_cfg).generate();
  sim::ExperimentConfig config;
  config.horizon_s = trace_cfg.duration_s;
  config.engine.cluster.node_count = 4;

  OfflineSession session = start_session(sim::Policy::kFifo, config, trace);
  session.engine->run_until(600.0);
  ASSERT_GT(session.engine->running_jobs(), 0u);

  SnapshotMeta meta;
  meta.seq = 1;
  meta.virtual_time = session.engine->sim().now();
  meta.dispatched = session.engine->sim().dispatched();
  auto blob = capture_snapshot(meta, "", *session.engine,
                               *session.scheduler.scheduler);
  ASSERT_TRUE(blob.ok()) << blob.error().message;

  for (const char* count : {"5", "99999999999999"}) {
    auto parsed = parse_snapshot(*blob);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    // The placement count is the last token of the first "run" line.
    std::string& body = parsed->body;
    const size_t run = body.find("\nrun ");
    ASSERT_NE(run, std::string::npos);
    const size_t eol = body.find('\n', run + 1);
    const size_t last = body.rfind(' ', eol);
    body.replace(last + 1, eol - last - 1, count);

    util::Result<RestoredSession> restored =
        util::Error{util::ErrorCode::kFailedPrecondition, "not run"};
    ASSERT_NO_THROW(restored = restore_session(*parsed, sim::Policy::kFifo,
                                               config, trace))
        << count;
    ASSERT_FALSE(restored.ok()) << count;
    EXPECT_EQ(restored.error().code, util::ErrorCode::kParseError) << count;
  }
}

// A small FIFO session cut at t = 600 s on a 4-node cluster, with its
// snapshot parsed and ready to tamper with.
struct ManifestFixture {
  ManifestFixture() {
    auto trace_cfg = sim::standard_week_trace(3);
    trace_cfg.duration_s = 3600.0;
    trace_cfg.cpu_jobs = 10;
    trace_cfg.gpu_jobs = 5;
    trace = workload::TraceGenerator(trace_cfg).generate();
    config.horizon_s = trace_cfg.duration_s;
    config.engine.cluster.node_count = 4;
    OfflineSession session = start_session(sim::Policy::kFifo, config, trace);
    session.engine->run_until(600.0);
    SnapshotMeta meta;
    meta.seq = 1;
    meta.virtual_time = session.engine->sim().now();
    meta.dispatched = session.engine->sim().dispatched();
    auto blob = capture_snapshot(meta, "", *session.engine,
                                 *session.scheduler.scheduler);
    EXPECT_TRUE(blob.ok());
    auto parsed = parse_snapshot(*blob);
    EXPECT_TRUE(parsed.ok());
    snapshot = *parsed;
    for (const auto& [id, record] : session.engine->records()) {
      if (record.first_start_time < 0.0) {
        not_running = id;  // still pending or not yet arrived
      }
    }
  }

  // Restores the snapshot with one extra manifest entry appended.
  util::Result<RestoredSession> restore_with(double t, uint64_t kind,
                                             uint64_t a, uint64_t b = 0) {
    Snapshot tampered = snapshot;
    std::string& body = tampered.body;
    const size_t at = body.find("\nmanifest ");
    EXPECT_NE(at, std::string::npos);
    const size_t eol = body.find('\n', at + 1);
    const uint64_t n = std::stoull(body.substr(at + 10, eol - at - 10));
    Writer w;
    w.line("manifest", n + 1);
    w.line("event", t, kind, a, b);
    body.replace(at + 1, eol - at, std::string(w.text()));
    return restore_session(tampered, sim::Policy::kFifo, config, trace);
  }

  double now() const { return snapshot.meta.virtual_time; }

  std::vector<workload::JobSpec> trace;
  sim::ExperimentConfig config;
  Snapshot snapshot;
  cluster::JobId not_running = 0;
};

// Every corrupt manifest entry below used to abort, throw, or restore a
// session that aborts later; each must be a parse error from the restore.
void expect_rejected(util::Result<RestoredSession> restored,
                     const char* what) {
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.error().code, util::ErrorCode::kParseError);
  EXPECT_NE(restored.error().message.find(what), std::string::npos)
      << restored.error().message;
}

TEST(Snapshot, UntamperedManifestFixtureRestores) {
  ManifestFixture f;
  EXPECT_TRUE(restore_session(f.snapshot, sim::Policy::kFifo, f.config,
                              f.trace)
                  .ok());
  EXPECT_NE(f.not_running, 0u);
}

TEST(Snapshot, RestoreRejectsArrivalForUnknownJob) {
  ManifestFixture f;
  expect_rejected(f.restore_with(f.now() + 1.0, 1, 999999), "unknown job");
}

TEST(Snapshot, RestoreRejectsFinishForJobNotRunning) {
  ManifestFixture f;
  expect_rejected(f.restore_with(f.now() + 1.0, 2, f.not_running),
                  "not running");
  expect_rejected(f.restore_with(f.now() + 1.0, 2, 999999), "not running");
}

TEST(Snapshot, RestoreRejectsNodeIdsThatDoNotFit32Bits) {
  ManifestFixture f;
  // 2^32 + 3 used to narrow to node 3.
  expect_rejected(f.restore_with(f.now() + 1.0, 3, 4294967299ULL), "node");
  expect_rejected(f.restore_with(f.now() + 1.0, 4, 4294967299ULL), "node");
}

TEST(Snapshot, RestoreRejectsNodeIdsBeyondTheCluster) {
  ManifestFixture f;
  expect_rejected(f.restore_with(f.now() + 1.0, 3, 4), "node");
  expect_rejected(f.restore_with(f.now() + 1.0, 4, 4), "node");
}

TEST(Snapshot, RestoreRejectsEventsBeforeTheSnapshotTime) {
  ManifestFixture f;
  expect_rejected(f.restore_with(f.now() - 1.0, 1, f.trace.front().id),
                  "virtual time");
}

}  // namespace
}  // namespace coda::state
