// Cancellable priority event queue for the discrete-event simulator.
//
// Events are ordered by (time, insertion sequence): ties in simulated time
// resolve in schedule order, which keeps runs bit-for-bit deterministic.
// Cancellation is lazy — a cancelled entry stays queued and is skipped when
// it surfaces — so cancel is O(1) and pop stays O(log n) amortized.
//
// Storage is a two-level calendar hierarchy instead of one global heap:
// a small "near" binary heap holds only events before near_end_, a ring of
// equal-width far buckets covers the current epoch beyond it, and an
// unsorted overflow holds everything past the ring. Steady-state pushes
// into the future append to a far bucket in O(1) instead of paying
// O(log E) against every queued event; buckets migrate into the near heap
// one at a time as the simulation reaches them. Routing is strict on
// t < near_end_ and bucket edges are computed with one shared expression,
// so equal-time events always land in the same structure and dispatch
// order is identical to the single-heap implementation, event for event.
//
// Entries are plain data — (t, seq, slot, gen, tag) — with no callable
// attached: the Simulator dispatches each popped tag through its per-kind
// handler table. Two scheduling paths exist: push() hands back an
// EventHandle backed by a pooled generation slot (no per-event heap
// allocation in steady state), while post() is for events that always
// fire and claims no slot.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace coda::simcore {

using SimTime = double;  // simulated seconds since experiment start

// What a scheduled event is: the handler kind plus two operands (a job or
// node id, a generation). The tag is the whole event — dispatch looks the
// kind up in the Simulator's handler table — so a (t, kind, a, b) line in a
// snapshot's re-arm manifest re-creates it exactly. See simcore/event_tags.h
// for the kind registry.
struct EventTag {
  uint32_t kind = 0;
  uint64_t a = 0;
  uint64_t b = 0;
};

// One live queue entry as seen by the snapshot subsystem: fire time, the
// insertion sequence (relative order under time ties), and the tag.
struct PendingEvent {
  SimTime t = 0.0;
  uint64_t seq = 0;
  EventTag tag;
};

// Slab pool of event control slots. Each slot is just a generation counter:
// a (slot, generation) pair names one scheduled event, and the pair goes
// stale — meaning "fired or cancelled" — the moment the slot's generation
// is bumped. Slots recycle through a free list, so after warm-up push()
// allocates nothing; bumping the generation on release makes recycled slots
// safe against stale handles (ABA). The pool is shared (shared_ptr) between
// the queue and every outstanding EventHandle, so handles that outlive the
// queue stay harmless, exactly like the old per-event control blocks.
class EventPool {
 public:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  // Claims a slot (growing by one slab when the free list is empty) and
  // returns its index; the current generation names this allocation.
  uint32_t alloc() {
    if (free_.empty()) {
      grow();
    }
    const uint32_t idx = free_.back();
    free_.pop_back();
    ++in_use_;
    return idx;
  }

  uint64_t generation(uint32_t idx) const {
    return chunks_[idx / kChunkSlots][idx % kChunkSlots];
  }

  // Invalidates every outstanding (idx, generation) reference and recycles
  // the slot. Called when the event fires or is cancelled.
  void release(uint32_t idx) {
    ++chunks_[idx / kChunkSlots][idx % kChunkSlots];
    free_.push_back(idx);
    --in_use_;
  }

  // Cancel path used by EventHandle: succeeds only while (idx, g) is still
  // current, releasing the slot and dropping the live-event count.
  bool cancel(uint32_t idx, uint64_t g) {
    if (generation(idx) != g) {
      return false;  // already fired or cancelled
    }
    release(idx);
    --live_;
    return true;
  }

  struct Stats {
    size_t live_events = 0;   // scheduled & not fired/cancelled (incl. post)
    size_t slots_in_use = 0;  // pooled control slots currently claimed
    size_t slots_free = 0;    // recycled slots awaiting reuse
    size_t chunks = 0;        // slabs allocated over the pool's lifetime
  };
  Stats stats() const {
    return Stats{live_, in_use_, free_.size(), chunks_.size()};
  }

 private:
  friend class EventQueue;
  static constexpr size_t kChunkSlots = 256;

  void grow() {
    auto chunk = std::make_unique<uint64_t[]>(kChunkSlots);
    const uint32_t base = static_cast<uint32_t>(chunks_.size() * kChunkSlots);
    for (size_t i = 0; i < kChunkSlots; ++i) {
      chunk[i] = 0;
      free_.push_back(base + static_cast<uint32_t>(kChunkSlots - 1 - i));
    }
    chunks_.push_back(std::move(chunk));
  }

  std::vector<std::unique_ptr<uint64_t[]>> chunks_;  // slot generations
  std::vector<uint32_t> free_;
  size_t in_use_ = 0;
  size_t live_ = 0;  // live events in the owning queue, pooled or post()ed
};

// Handle to a pushed event (slot index + generation into the shared
// EventPool); lets callers cancel it before it fires. Copyable; all copies
// refer to the same scheduled event. A default-constructed handle is never
// pending.
class EventHandle {
 public:
  EventHandle() = default;

  // True while the event is scheduled and not yet fired/cancelled.
  bool pending() const { return pool_ && pool_->generation(idx_) == gen_; }

  // Cancels the event if still pending; no-op otherwise.
  void cancel() {
    if (pool_) {
      pool_->cancel(idx_, gen_);
    }
  }

 private:
  friend class EventQueue;
  EventHandle(std::shared_ptr<EventPool> pool, uint32_t idx, uint64_t gen)
      : pool_(std::move(pool)), idx_(idx), gen_(gen) {}

  std::shared_ptr<EventPool> pool_;
  uint32_t idx_ = EventPool::kNoSlot;
  uint64_t gen_ = 0;
};

class EventQueue {
 public:
  // Enqueues `tag` at simulated time `t`. Times may be scheduled in any
  // order but must not precede the last popped time (checked by the
  // Simulator).
  EventHandle push(SimTime t, const EventTag& tag);

  // Enqueues `tag` at `t` with no cancellation handle: the event will fire
  // exactly once. Avoids claiming a control slot.
  void post(SimTime t, const EventTag& tag);

  // Appends every live (non-cancelled) entry to `out` in dispatch order
  // ((t, seq) ascending).
  void pending_events(std::vector<PendingEvent>* out) const;

  // True when no live (non-cancelled) events remain.
  bool empty() const { return pool_->live_ == 0; }

  // Time of the earliest live event; requires !empty().
  SimTime next_time();

  // Pops and returns the earliest live event; requires !empty().
  struct Popped {
    SimTime t;
    EventTag tag;
  };
  Popped pop();

  // Number of live events; O(1).
  size_t live_count() const { return pool_->live_; }

  // Control-slot pool occupancy; telemetry reads this through the Simulator.
  EventPool::Stats pool_stats() const { return pool_->stats(); }

 private:
  // The tag's fields are stored flat so the entry packs into 48 bytes.
  struct Entry {
    SimTime t;
    uint64_t seq;
    uint64_t gen;   // pool generation at push time
    uint64_t a;     // tag operands
    uint64_t b;
    uint32_t slot;  // EventPool::kNoSlot for post()ed events
    uint32_t kind;  // tag kind
    EventTag tag() const { return EventTag{kind, a, b}; }
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.t != b.t) {
        return a.t > b.t;
      }
      return a.seq > b.seq;
    }
  };

  // A pushed entry whose slot generation moved on is cancelled: the handle
  // released the slot before the event fired.
  bool stale(const Entry& entry) const {
    return entry.slot != EventPool::kNoSlot &&
           pool_->generation(entry.slot) != entry.gen;
  }

  static constexpr size_t kFarBuckets = 256;

  void push_entry(const Entry& entry);
  // Files an entry into near heap / far ring / overflow by its time.
  void route(const Entry& entry);
  // Ensures the near heap's top is the earliest live event, migrating far
  // buckets (and re-seeding the epoch from overflow) as needed. Requires a
  // live event to exist.
  void refill();
  // Spreads the overflow across a fresh ring epoch sized to its time span.
  void rebuild_epoch();
  // Live count hit zero: drop any leftover cancelled entries and reset the
  // epoch so the next batch starts clean.
  void reset_structures();

  std::vector<Entry> near_;     // min-heap over (t, seq); times < near_end_
  std::vector<std::vector<Entry>> far_ =
      std::vector<std::vector<Entry>>(kFarBuckets);  // calendar ring
  std::vector<Entry> overflow_;  // past the ring, or no epoch active
  SimTime near_end_ = 0.0;       // near/far routing boundary (strict <)
  SimTime far_base_ = 0.0;       // ring epoch start
  SimTime far_width_ = 0.0;      // per-bucket width of the current epoch
  size_t far_cursor_ = 0;        // next ring bucket to migrate
  bool epoch_active_ = false;
  uint64_t next_seq_ = 0;
  std::shared_ptr<EventPool> pool_ = std::make_shared<EventPool>();
};

}  // namespace coda::simcore
