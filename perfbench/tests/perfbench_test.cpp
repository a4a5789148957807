// Tests of the benchmark itself: the traced pass must not change what it
// measures, the load generator's accounting must count failures and time
// from the due time, and a result must carry every metric of its mode.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "measure.h"
#include "replay.h"
#include "serve.h"
#include "service/protocol.h"
#include "sim/experiment.h"
#include "spans.h"
#include "workload/trace_gen.h"

namespace perfbench {
namespace {

using coda::service::Response;

ReplayInput small_input() {
  coda::workload::TraceConfig tc = coda::sim::standard_week_trace(7);
  tc.duration_s = 86400.0;
  tc.cpu_jobs = 1500;
  tc.gpu_jobs = 700;
  ReplayInput in;
  in.make_trace = [tc] {
    return coda::workload::TraceGenerator(tc).generate();
  };
  in.config.engine.cluster.node_count = 40;
  return in;
}

TEST(ReplayTest, WrapperAndSteppingAreTransparent) {
  const ReplayInput in = small_input();
  SpanRecorder wrapped_rec;
  SpanRecorder traced_rec;
  const ReplayResult plain = run_replay(in, ReplayMode::kPlain, nullptr);
  const ReplayResult wrapped =
      run_replay(in, ReplayMode::kWrapped, &wrapped_rec);
  const ReplayResult traced = run_replay(in, ReplayMode::kTraced, &traced_rec);
  ASSERT_TRUE(plain.error.empty()) << plain.error;
  ASSERT_TRUE(wrapped.error.empty()) << wrapped.error;
  ASSERT_TRUE(traced.error.empty()) << traced.error;
  EXPECT_EQ(compare_counts(plain, wrapped), "");
  EXPECT_EQ(compare_counts(plain, traced), "");
  EXPECT_EQ(plain.digest, traced.digest);
  EXPECT_GT(plain.events, 0u);
  EXPECT_GT(traced.steps, 0u);
  EXPECT_LE(traced.steps, traced.events);
  EXPECT_GT(wrapped.kicks, 0u);
  EXPECT_EQ(wrapped.kicks, traced.kicks);
  // Only the traced replay takes the snapshot cut.
  EXPECT_EQ(plain.snapshot_bytes, 0u);
  EXPECT_GT(traced.snapshot_bytes, 0u);
  EXPECT_TRUE(traced.restored_identical);
  EXPECT_TRUE(plain.accounting_closes);
  EXPECT_EQ(plain.completed + plain.abandoned + plain.censored,
            plain.submitted);

  // Top-level spans plus the residual make up the traced wall time.
  double top = 0.0;
  for (const char* n : {"sim.event_step", "sim.metrics_tick",
                        "coda.eliminator_tick", "sim.report"}) {
    top += traced_rec.totals(traced_rec.id(n)).total_s;
  }
  EXPECT_GE(traced.self_s, 0.0);
  EXPECT_NEAR(top + traced.self_s, traced.traced_wall_s, 1e-9);
  EXPECT_GT(traced_rec.totals(traced_rec.id("coda.kick")).count, 0u);
  EXPECT_GT(traced_rec.totals(traced_rec.id("sim.metrics_tick")).count, 0u);
}

TEST(ReplayTest, RepeatsExactlyForOneSeed) {
  const ReplayInput in = small_input();
  const ReplayResult a = run_replay(in, ReplayMode::kPlain, nullptr);
  const ReplayResult b = run_replay(in, ReplayMode::kPlain, nullptr);
  EXPECT_EQ(compare_counts(a, b), "");
}

TEST(SpanTest, SelfTimeExcludesChildren) {
  SpanRecorder rec;
  const int outer = rec.id("outer");
  const int inner = rec.id("inner");
  {
    Span o(&rec, outer);
    Span i(&rec, inner);
  }
  const auto& o = rec.totals(outer);
  const auto& i = rec.totals(inner);
  EXPECT_EQ(o.count, 1u);
  EXPECT_EQ(i.count, 1u);
  EXPECT_DOUBLE_EQ(o.child_s, i.total_s);
  EXPECT_GE(o.self_s(), 0.0);
  EXPECT_DOUBLE_EQ(rec.top_level_s(), o.total_s);
  EXPECT_EQ(rec.depth(), 0u);
}

Response ok(const std::string& payload) {
  Response r;
  r.kind = Response::Kind::kOk;
  r.payload = payload;
  return r;
}

TEST(LoadBookTest, TimesFromTheDueTime) {
  LoadBook book;
  // Due at 1.0 s, sent late at 1.5 s, answered at 1.502 s: the latency is
  // the 502 ms since it was due, and the generator lag is 500 ms.
  book.sent(1, LoadBook::Kind::kSubmit, 1.0, 1.5, 42, 1);
  EXPECT_TRUE(book.reply(1, 1.502, ok("id=42 vt=3.000")));
  ASSERT_EQ(book.latencies_ms(LoadBook::Kind::kSubmit).size(), 1u);
  EXPECT_NEAR(book.latencies_ms(LoadBook::Kind::kSubmit)[0], 502.0, 1e-6);
  EXPECT_NEAR(book.gen_lag_ms()[0], 500.0, 1e-6);
  ASSERT_EQ(book.acked().size(), 1u);
  EXPECT_EQ(book.acked()[0].first, 42u);
  EXPECT_EQ(book.acked()[0].second, 1);
  EXPECT_FALSE(book.reply(99, 2.0, ok("")));  // unknown CID
}

TEST(LoadBookTest, BusyErrAndUnansweredAreFailures) {
  LoadBook book;
  book.sent(1, LoadBook::Kind::kSubmit, 0.0, 0.0, 10, 0);
  book.sent(2, LoadBook::Kind::kSubmit, 0.0, 0.0, 11, 0);
  book.sent(3, LoadBook::Kind::kStatus, 0.0, 0.0, 10, 0);
  book.sent(4, LoadBook::Kind::kStatus, 0.0, 0.0, 10, 0);
  book.sent(5, LoadBook::Kind::kStatus, 0.0, 0.0, 10, 0);
  Response busy;
  busy.kind = Response::Kind::kBusy;
  busy.retry_after_ms = 100;
  Response err;
  err.kind = Response::Kind::kErr;
  err.payload = "unknown job 10";
  EXPECT_TRUE(book.reply(1, 0.001, busy));
  EXPECT_TRUE(book.reply(3, 0.001, err));
  // An OK STATUS that names another job is a failure too.
  EXPECT_TRUE(book.reply(4, 0.001, ok("id=7 state=pending")));
  EXPECT_TRUE(book.reply(5, 0.001, ok("id=10 state=pending")));
  book.expire();  // request 2 never answered
  EXPECT_EQ(book.attempted(), 5u);
  EXPECT_EQ(book.failed(LoadBook::Kind::kSubmit), 2u);
  EXPECT_EQ(book.failed(LoadBook::Kind::kStatus), 2u);
  EXPECT_TRUE(book.acked().empty());
  // Failures miss every limit: the SUBMIT median is already a failure.
  EXPECT_TRUE(std::isinf(
      quantile(book.latencies_ms(LoadBook::Kind::kSubmit), 0.5)));
  EXPECT_NEAR(quantile(book.latencies_ms(LoadBook::Kind::kStatus), 0.3), 1.0,
              1e-9);
}

TEST(MeasureTest, QuantileAndMedian) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) {
    v.push_back(i);
  }
  EXPECT_DOUBLE_EQ(quantile(v, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.50), 50.0);
  EXPECT_TRUE(std::isinf(quantile({}, 0.5)));
}

TEST(MeasureTest, ResultNeedsEveryMetricOfItsMode) {
  RunResult r(/*traced=*/false);
  for (const MetricDef& d : end_to_end_metrics()) {
    EXPECT_EQ(r.json(), "");
    r.set(d.name, 1.5);
  }
  r.add_attempted(3);
  // Every metric must be non-zero.
  r.set(end_to_end_metrics().back().name, 0.0);
  EXPECT_EQ(r.json(), "");
  r.set(end_to_end_metrics().back().name, 2.5);
  const std::string line = r.json();
  EXPECT_EQ(
      line.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0", 0),
      0u);
  r.check(false, "a failed output check");
  EXPECT_FALSE(r.correct());
}

}  // namespace
}  // namespace perfbench
