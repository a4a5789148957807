// Unit tests for the discrete-event core: ordering, cancellation, the
// per-kind handler table, periodic kinds and clock semantics.
#include <gtest/gtest.h>

#include <vector>

#include "simcore/event_queue.h"
#include "simcore/simulator.h"

namespace coda::simcore {
namespace {

// Drains the queue, returning the popped tags' `a` operands in order.
std::vector<uint64_t> drain(EventQueue& q) {
  std::vector<uint64_t> order;
  while (!q.empty()) {
    order.push_back(q.pop().tag.a);
  }
  return order;
}

// A simulator whose kind 1 records (now, a) for every dispatch.
struct Recorder {
  Recorder() {
    sim.set_handler(1, [this](const EventTag& e) {
      times.push_back(sim.now());
      ops.push_back(e.a);
    });
  }
  Simulator sim;
  std::vector<double> times;
  std::vector<uint64_t> ops;
};

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(3.0, EventTag{1, 3});
  q.post(1.0, EventTag{1, 1});
  q.push(2.0, EventTag{1, 2});
  EXPECT_EQ(drain(q), (std::vector<uint64_t>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  for (uint64_t i = 0; i < 10; ++i) {
    if (i % 2 == 0) {
      q.push(5.0, EventTag{1, i});
    } else {
      q.post(5.0, EventTag{1, i});
    }
  }
  EXPECT_EQ(drain(q), (std::vector<uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueue, CancelledEventsAreSkipped) {
  EventQueue q;
  auto h1 = q.push(1.0, EventTag{1, 1});
  auto h2 = q.push(2.0, EventTag{1, 2});
  EXPECT_TRUE(h1.pending());
  h1.cancel();
  EXPECT_FALSE(h1.pending());
  EXPECT_EQ(q.live_count(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  const EventQueue::Popped ev = q.pop();
  EXPECT_EQ(ev.tag.a, 2u);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(h2.pending());  // fired events report not-pending
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  auto h = q.push(1.0, EventTag{1, 1});
  auto later = q.push(2.0, EventTag{1, 2});
  EXPECT_EQ(q.pop().tag.a, 1u);
  h.cancel();  // fired already: must not cancel the slot's next user
  EXPECT_TRUE(later.pending());
  EXPECT_EQ(q.live_count(), 1u);
  EXPECT_FALSE(EventHandle().pending());
}

TEST(EventQueue, PendingEventsListLiveTagsInDispatchOrder) {
  EventQueue q;
  q.post(4.0, EventTag{2, 40, 7});
  auto dead = q.push(1.0, EventTag{1, 10});
  q.push(4.0, EventTag{1, 41});
  q.post(2.0, EventTag{3, 20});
  dead.cancel();
  std::vector<PendingEvent> pending;
  q.pending_events(&pending);
  ASSERT_EQ(pending.size(), 3u);
  EXPECT_DOUBLE_EQ(pending[0].t, 2.0);
  EXPECT_EQ(pending[0].tag.kind, 3u);
  EXPECT_EQ(pending[1].tag.a, 40u);
  EXPECT_EQ(pending[1].tag.b, 7u);
  EXPECT_EQ(pending[2].tag.a, 41u);
  EXPECT_LT(pending[1].seq, pending[2].seq);
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Recorder r;
  r.sim.schedule_at(5.0, EventTag{1, 5});
  r.sim.schedule_after(2.0, EventTag{1, 2});
  r.sim.run_all();
  EXPECT_EQ(r.times, (std::vector<double>{2.0, 5.0}));
  EXPECT_EQ(r.ops, (std::vector<uint64_t>{2, 5}));
  EXPECT_EQ(r.sim.dispatched(), 2u);
}

TEST(Simulator, TiesDispatchInInsertionOrder) {
  Recorder r;
  for (uint64_t i = 0; i < 6; ++i) {
    if (i % 3 == 0) {
      r.sim.schedule_at(7.0, EventTag{1, i});
    } else {
      r.sim.post_at(7.0, EventTag{1, i});
    }
  }
  r.sim.run_all();
  EXPECT_EQ(r.ops, (std::vector<uint64_t>{0, 1, 2, 3, 4, 5}));
}

TEST(Simulator, CancelThroughHandleSkipsDispatch) {
  Recorder r;
  EventHandle h = r.sim.schedule_at(1.0, EventTag{1, 1});
  r.sim.schedule_at(2.0, EventTag{1, 2});
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  r.sim.run_all();
  EXPECT_EQ(r.ops, (std::vector<uint64_t>{2}));
  EXPECT_EQ(r.sim.dispatched(), 1u);
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Recorder r;
  r.sim.schedule_at(10.0, EventTag{1, 1});
  r.sim.schedule_at(10.5, EventTag{1, 2});
  r.sim.run_until(10.0);
  EXPECT_EQ(r.ops.size(), 1u);
  EXPECT_DOUBLE_EQ(r.sim.now(), 10.0);
  r.sim.run_until(11.0);
  EXPECT_EQ(r.ops.size(), 2u);
}

TEST(Simulator, RunUntilAdvancesClockWhenQueueDrains) {
  Simulator sim;
  sim.run_until(100.0);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulator, EventsScheduledDuringDispatchRun) {
  Recorder r;
  r.sim.set_handler(2, [&](const EventTag&) {
    r.sim.schedule_after(1.0, EventTag{1, 9});
  });
  r.sim.schedule_at(1.0, EventTag{2});
  r.sim.run_all();
  EXPECT_EQ(r.times, (std::vector<double>{2.0}));
}

TEST(Simulator, ReRegisteringAKindReplacesItsHandler) {
  Simulator sim;
  std::vector<int> calls;
  sim.set_handler(4, [&](const EventTag&) { calls.push_back(1); });
  sim.post_at(1.0, EventTag{4});
  sim.set_handler(4, [&](const EventTag&) { calls.push_back(2); });
  sim.post_at(2.0, EventTag{4});
  sim.run_all();
  // The later registration serves every event of the kind, including the
  // one posted before it.
  EXPECT_EQ(calls, (std::vector<int>{2, 2}));
}

TEST(Simulator, PeriodicFiresRepeatedly) {
  Simulator sim;
  int ticks = 0;
  sim.set_handler(3, [&](const EventTag&) { ++ticks; });
  EXPECT_FALSE(sim.periodic_running(3));
  sim.start_periodic(10.0, 10.0, EventTag{3});
  EXPECT_TRUE(sim.periodic_running(3));
  sim.run_until(35.0);
  EXPECT_EQ(ticks, 3);  // t = 10, 20, 30
  EXPECT_EQ(sim.dispatched(), 3u);
  EXPECT_DOUBLE_EQ(sim.next_event_time(), 40.0);  // the chain re-posted
}

TEST(Simulator, PeriodicRepostFollowsTheHandlersOwnPosts) {
  Recorder r;
  // The tick posts one event one period ahead and one at its own instant;
  // the simulator's re-post of the tick comes after both, so at t = 4 the
  // handler's event (posted at t = 2) dispatches before the next tick.
  std::vector<double> ticks;
  r.sim.set_handler(3, [&](const EventTag&) {
    ticks.push_back(r.sim.now());
    r.sim.post_after(2.0, EventTag{1, 100});
    r.sim.post_after(0.0, EventTag{1, 200});
  });
  r.sim.start_periodic(2.0, 2.0, EventTag{3});
  std::vector<PendingEvent> pending;
  r.sim.run_until(2.0);
  r.sim.pending_events(&pending);
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].tag.a, 100u);  // posted by the handler
  EXPECT_EQ(pending[1].tag.kind, 3u);  // then the re-posted tick
  r.sim.run_until(4.0);
  EXPECT_EQ(ticks, (std::vector<double>{2.0, 4.0}));
  EXPECT_EQ(r.ops, (std::vector<uint64_t>{200, 100, 200}));
}

TEST(Simulator, TwoPeriodicsInterleaveDeterministically) {
  Simulator sim;
  std::vector<int> order;
  sim.set_handler(5, [&](const EventTag&) { order.push_back(1); });
  sim.set_handler(6, [&](const EventTag&) { order.push_back(2); });
  sim.start_periodic(2.0, 2.0, EventTag{5});
  sim.start_periodic(2.0, 2.0, EventTag{6});
  sim.run_until(4.0);
  // Same period, first registered fires first at each tick.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2}));
}

TEST(Simulator, ScheduleAfterZeroDelayRunsAtNow) {
  Recorder r;
  r.sim.set_handler(2, [&](const EventTag&) {
    r.sim.schedule_after(0.0, EventTag{1, 1});
  });
  r.sim.schedule_at(3.0, EventTag{2});
  r.sim.run_all();
  EXPECT_EQ(r.times, (std::vector<double>{3.0}));
}

}  // namespace
}  // namespace coda::simcore
