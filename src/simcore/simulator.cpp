#include "simcore/simulator.h"

#include <limits>

#include "util/assert.h"

namespace coda::simcore {

void Simulator::set_handler(uint32_t kind, EventHandler handler) {
  if (kind >= kinds_.size()) {
    kinds_.resize(kind + 1);
  }
  kinds_[kind].handler = std::move(handler);
}

void Simulator::check_one_shot(SimTime t, const EventTag& tag) const {
  CODA_ASSERT_MSG(t >= now_, "cannot schedule an event in the simulated past");
  CODA_ASSERT_MSG(has_handler(tag.kind), "event kind has no handler");
  CODA_ASSERT_MSG(!periodic_running(tag.kind),
                  "one-shot event of a running periodic kind");
}

EventHandle Simulator::schedule_at(SimTime t, const EventTag& tag) {
  check_one_shot(t, tag);
  return queue_.push(t, tag);
}

EventHandle Simulator::schedule_after(SimTime delay, const EventTag& tag) {
  CODA_ASSERT(delay >= 0.0);
  return schedule_at(now_ + delay, tag);
}

void Simulator::post_at(SimTime t, const EventTag& tag) {
  check_one_shot(t, tag);
  queue_.post(t, tag);
}

void Simulator::post_after(SimTime delay, const EventTag& tag) {
  CODA_ASSERT(delay >= 0.0);
  post_at(now_ + delay, tag);
}

void Simulator::start_periodic(SimTime first, SimTime period,
                               const EventTag& tag) {
  CODA_ASSERT(period > 0.0);
  check_one_shot(first, tag);
  kinds_[tag.kind].period = period;
  queue_.post(first, tag);
}

void Simulator::restore_clock(SimTime now, size_t dispatched) {
  CODA_ASSERT_MSG(queue_.empty(),
                  "restore_clock requires an empty event queue");
  CODA_ASSERT(now >= now_);
  now_ = now;
  dispatched_ = dispatched;
}

SimTime Simulator::next_event_time() {
  return queue_.empty() ? std::numeric_limits<SimTime>::infinity()
                        : queue_.next_time();
}

size_t Simulator::run_until(SimTime until) {
  size_t n = 0;
  while (!queue_.empty() && queue_.next_time() <= until) {
    const EventQueue::Popped ev = queue_.pop();
    CODA_ASSERT(ev.t >= now_);
    now_ = ev.t;
    CODA_ASSERT_MSG(has_handler(ev.tag.kind), "event kind has no handler");
    kinds_[ev.tag.kind].handler(ev.tag);
    // Re-read the table: the handler may have registered kinds (growing
    // it).
    const SimTime period = kinds_[ev.tag.kind].period;
    if (period > 0.0) {
      queue_.post(now_ + period, ev.tag);
    }
    ++n;
    ++dispatched_;
    if (post_dispatch_) {
      post_dispatch_();
    }
  }
  if (now_ < until) {
    now_ = until;  // advance the clock even if the queue drained early
  }
  return n;
}

size_t Simulator::run_all() {
  return run_until(std::numeric_limits<SimTime>::infinity());
}

}  // namespace coda::simcore
