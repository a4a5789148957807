// Discrete-event simulator driving all CODA experiments.
//
// The simulator owns the clock, the event queue and a per-kind handler
// table. Events are plain data (an EventTag at a time): components register
// one handler per kind they own, then schedule tags at absolute or relative
// simulated times; run() pops them in (time, insertion) order and calls the
// kind's handler, until the queue drains or a time limit is hit.
#pragma once

#include <functional>
#include <vector>

#include "simcore/event_queue.h"

namespace coda::simcore {

// Runs one dispatched event; the tag carries the event's operands.
using EventHandler = std::function<void(const EventTag&)>;

class Simulator {
 public:
  // Current simulated time (seconds since start). Monotonically
  // non-decreasing across event dispatches.
  SimTime now() const { return now_; }

  // Installs the handler for `kind`. A later registration for the same kind
  // replaces the earlier one (a forwarding scheduler attaches its inner
  // scheduler after itself, and the inner one must win). Not callable from
  // inside a handler of the same kind.
  void set_handler(uint32_t kind, EventHandler handler);

  // Schedules `tag` at absolute time `t` (>= now()). The kind must have a
  // registered handler. The handle cancels the event before it fires.
  EventHandle schedule_at(SimTime t, const EventTag& tag);

  // Schedules `tag` after `delay` (>= 0) seconds of simulated time.
  EventHandle schedule_after(SimTime delay, const EventTag& tag);

  // Fire-and-forget variants: no cancellation handle and no pooled control
  // slot. Use for events that always run (arrivals, outages, retries).
  void post_at(SimTime t, const EventTag& tag);
  void post_after(SimTime delay, const EventTag& tag);

  // Starts a periodic chain of `tag`: the first tick fires at the absolute
  // time `first` (>= now()), then every `period` seconds. After each tick's
  // handler returns, the simulator re-posts the tag one period later — so
  // the re-post comes after any event the handler posted at the same
  // instant. The snapshot restore path re-arms an in-flight periodic with
  // the serialized pending tick's time as `first`, so the restored chain
  // ticks at the exact instants the original would have. At most one chain
  // per kind, and a periodic kind takes no one-shot events while its chain
  // runs.
  void start_periodic(SimTime first, SimTime period, const EventTag& tag);

  // Whether a periodic chain of `kind` is running.
  bool periodic_running(uint32_t kind) const {
    return kind < kinds_.size() && kinds_[kind].period > 0.0;
  }

  // Appends every live event to `out` in dispatch order.
  void pending_events(std::vector<PendingEvent>* out) const {
    queue_.pending_events(out);
  }

  // Snapshot restore: force the clock and the dispatch counter to the
  // values the snapshotted simulator had. Only legal before any event is
  // scheduled (the queue must be empty) — re-armed events are scheduled
  // after this, at absolute times >= `now`.
  void restore_clock(SimTime now, size_t dispatched);

  // Dispatches events until the queue is empty or simulated time would
  // exceed `until` (events at exactly `until` still run). Returns the number
  // of events dispatched.
  size_t run_until(SimTime until);

  // Dispatches events until the queue is empty. Returns events dispatched.
  size_t run_all();

  // Number of events dispatched since construction.
  size_t dispatched() const { return dispatched_; }

  bool queue_empty() const { return queue_.empty(); }

  // Occupancy of the event control-slot pool (telemetry export).
  EventPool::Stats event_pool_stats() const { return queue_.pool_stats(); }

  // Time of the earliest live event, or +infinity when the queue is empty.
  // Pacing hook for the service layer: a real-time driver sleeps until the
  // wall-clock instant this virtual time maps to. Non-const because peeking
  // lazily drops cancelled heap entries.
  SimTime next_event_time();

  // Installs `fn` to run after every dispatched event, before the clock
  // advances to the next one. The simulation engine uses this to drain its
  // dirty-node set exactly once per dispatch: all mutations an event makes
  // happen at one simulated instant, so batching their recomputes here is
  // observationally identical to recomputing eagerly. Pass nullptr to clear.
  void set_post_dispatch(std::function<void()> fn) {
    post_dispatch_ = std::move(fn);
  }

 private:
  struct Kind {
    EventHandler handler;
    SimTime period = 0.0;  // > 0 while a periodic chain of this kind runs
  };

  bool has_handler(uint32_t kind) const {
    return kind < kinds_.size() && kinds_[kind].handler != nullptr;
  }
  // Checks a one-shot schedule request: not in the past, a handled kind,
  // and not a kind whose periodic chain is running.
  void check_one_shot(SimTime t, const EventTag& tag) const;

  SimTime now_ = 0.0;
  EventQueue queue_;
  size_t dispatched_ = 0;
  std::vector<Kind> kinds_;  // indexed by EventTag::kind
  std::function<void()> post_dispatch_;
};

}  // namespace coda::simcore
