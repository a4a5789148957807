// Registry of EventTag.kind values used across the simulation layers.
//
// Each kind has exactly one handler in the Simulator's table, registered by
// the layer that owns it (the engine constructor, Scheduler::attach,
// CodaScheduler::attach). The values live here so the snapshot subsystem's
// re-arm manifest has a single enumeration to dispatch on. Kind 0 is
// unused.
#pragma once

#include <cstdint>

namespace coda::simcore {

enum EventTagKind : uint32_t {
  kTagArrival = 1,         // a = job id (engine arrival)
  kTagJobFinish = 2,       // a = job id (engine finish event)
  kTagNodeFail = 3,        // a = node id (scheduled outage start)
  kTagNodeRecover = 4,     // a = node id (scheduled outage end)
  kTagMetricsTick = 5,     // engine metrics-sampling periodic kind
  kTagRetryResubmit = 6,   // a = job id (scheduler retry backoff)
  kTagEliminatorTick = 7,  // CODA eliminator check periodic kind
  kTagReservationTick = 8, // CODA reservation-update periodic kind
  kTagTuningTick = 9,      // a = job id, b = tuning generation
};

}  // namespace coda::simcore
