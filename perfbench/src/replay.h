// Offline replay measurement: one CODA experiment run through the public
// engine API exactly as sim::run_experiment runs it (run_until(horizon),
// drain, build_report).
//
// Three modes share the code path:
//   kPlain   - the measured run: the production scheduler, no wrapper;
//   kWrapped - the same run under TimedScheduler (wrapper overhead);
//   kTraced  - TimedScheduler plus stepping: run_until advances one
//              distinct event instant at a time (Simulator::next_event_time)
//              and each step is a span attributed to its kind of instant.
//              It also takes a snapshot cut at half the horizon (capture,
//              then parse + restore into a second session) and continues
//              on the original engine.
// All three must serialize byte-identical reports.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "spans.h"
#include "workload/job.h"
#include "workload/trace_gen.h"

namespace perfbench {

// What a replay needs: a trace factory (timed as part of set-up) and the
// experiment config. The policy is always CODA.
struct ReplayInput {
  std::function<std::vector<coda::workload::JobSpec>()> make_trace;
  coda::sim::ExperimentConfig config;
};

// replay-10k: the full 10k-node scale profile (15k GPU + 22.5k CPU jobs in
// one day, wide multi-node gangs).
ReplayInput scale_10k_input(uint64_t seed);
coda::workload::TraceConfig scale_10k_trace(uint64_t seed);
// replay-month: the paper's 80-node cluster over one month (112.5k jobs).
ReplayInput month_input(uint64_t seed);
coda::workload::TraceConfig month_trace(uint64_t seed);

enum class ReplayMode { kPlain, kWrapped, kTraced };

struct ReplayResult {
  std::string error;  // non-empty: the replay could not complete

  // Set-up: trace generation + scheduler + engine + load_trace.
  double setup_s = 0.0;
  double generate_s = 0.0;
  double load_trace_s = 0.0;

  double advance_s = 0.0;  // run_until + drain host time, cut excluded
  double report_s = 0.0;   // build_report + serialize_report
  double wall_s() const { return advance_s + report_s; }

  // Snapshot cut (kTraced only).
  double capture_s = 0.0;
  double parse_s = 0.0;
  double restore_s = 0.0;  // restore_session alone
  size_t snapshot_bytes = 0;
  // A capture of the restored session equals the cut byte for byte.
  bool restored_identical = false;

  size_t jobs = 0;
  size_t nodes = 0;
  size_t events = 0;
  uint64_t digest = 0;  // FNV-1a of the serialized report
  size_t submitted = 0;
  size_t completed = 0;
  size_t abandoned = 0;
  size_t censored = 0;
  bool accounting_closes = false;  // see job_accounting_closes

  // Deterministic engine counters (equal across modes and runs).
  uint64_t node_recomputes = 0;
  uint64_t rate_updates = 0;
  uint64_t reschedules = 0;
  uint64_t reschedules_skipped = 0;
  uint64_t pool_chunks = 0;
  uint64_t index_probes = 0;
  uint64_t index_generation = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  int eliminator_checks = 0;
  int throttles = 0;

  // Wrapped/traced modes.
  uint64_t kicks = 0;
  uint64_t starts_in_kicks = 0;
  uint64_t probes_in_kicks = 0;
  // Traced mode: steps and the residual not covered by top-level spans.
  size_t steps = 0;
  double traced_wall_s = 0.0;
  double self_s = 0.0;
};

// Runs one replay. `rec` receives spans in the wrapped and traced modes
// (must be non-null there).
ReplayResult run_replay(const ReplayInput& input, ReplayMode mode,
                        SpanRecorder* rec);

// Set-up alone (trace generation, scheduler, engine, load_trace), timed
// as run_replay times it; returns seconds.
double run_setup_only(const ReplayInput& input);

// completed + abandoned + censored == submitted: every submitted job has
// exactly one record, and the per-record flags agree with the totals.
bool job_accounting_closes(const coda::sim::ExperimentReport& report);

// The counters that must repeat exactly between two replays of one input;
// returns a description of the first mismatch, or empty.
std::string compare_counts(const ReplayResult& a, const ReplayResult& b);

}  // namespace perfbench
