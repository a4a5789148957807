// Live serving measurement: an in-process service::Server on loopback TCP
// driven by an open-loop load generator.
//
// The generator is one thread over pipelined, CID-tagged connections. Each
// command has a due time fixed in advance (i / rate); it is sent as soon as
// it is due and timed from that due time to its reply, so a stall delays
// and penalises every command queued behind it. Half the commands are
// SUBMITs of unique jobs, half are STATUS reads of jobs already
// acknowledged. After the measured window, fixed-length SUBMIT-only probes
// at rising rates find the highest rate whose p99 meets the limit, then the
// session is drained and every output is checked, each shard's report
// against an offline replay of its journal.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "service/protocol.h"
#include "service/server.h"

namespace perfbench {

// Open-loop accounting. Times are seconds on one steady clock.
class LoadBook {
 public:
  enum class Kind { kSubmit = 0, kStatus = 1 };

  void sent(uint64_t cid, Kind kind, double due_s, double sent_s,
            uint64_t job_id, int shard);
  // A reply arrived. ERR and BUSY replies, and OK replies to STATUS that
  // name another job, are failures. Returns false for an unknown CID.
  bool reply(uint64_t cid, double recv_s,
             const coda::service::Response& resp);
  // Marks every request still waiting for its reply as failed.
  void expire();

  size_t outstanding() const { return pending_.size(); }
  size_t attempted(Kind k) const { return attempted_[index(k)]; }
  size_t failed(Kind k) const { return failed_[index(k)]; }
  size_t attempted() const { return attempted_[0] + attempted_[1]; }
  size_t failed() const { return failed_[0] + failed_[1]; }
  // (due time s, latency ms) of every finished request, latency measured
  // from the due time to the reply; failures are +inf so they miss every
  // limit.
  const std::vector<std::pair<double, double>>& latencies(Kind k) const {
    return latency_ms_[index(k)];
  }
  std::vector<double> latencies_ms(Kind k) const;
  const std::vector<double>& gen_lag_ms() const { return gen_lag_ms_; }
  // Send time of the latest request (0 before any).
  double last_sent_s() const { return last_sent_s_; }
  // (job id, shard) of every acknowledged SUBMIT, in ack order.
  const std::vector<std::pair<uint64_t, int>>& acked() const {
    return acked_;
  }

 private:
  static size_t index(Kind k) { return static_cast<size_t>(k); }
  struct Pending {
    Kind kind = Kind::kSubmit;
    double due_s = 0.0;
    uint64_t job_id = 0;
    int shard = 0;
  };
  void fail(Kind k, double due_s);

  std::unordered_map<uint64_t, Pending> pending_;
  size_t attempted_[2] = {0, 0};
  size_t failed_[2] = {0, 0};
  std::vector<std::pair<double, double>> latency_ms_[2];
  std::vector<double> gen_lag_ms_;
  std::vector<std::pair<uint64_t, int>> acked_;
  double last_sent_s_ = 0.0;
};

// The measured window: nominal commands/s and length in seconds.
inline constexpr double kLiveRate = 4000.0;
inline constexpr double kLiveWindowS = 10.0;

struct LiveSpec {
  coda::service::SessionSpec session;  // horizon resolved
  // Pre-generated SUBMIT rows with unique job ids; the window uses
  // kLiveRate * kLiveWindowS / 2 of them, the probes the rest.
  std::vector<std::string> submit_rows;
  uint64_t status_fallback_id = 1;  // a base-trace job, before any ack
  uint64_t seed = 1;                // STATUS target picks
  std::string journal_stem;         // scratch path prefix
};

struct ProbeResult {
  double rate = 0.0;       // nominal SUBMITs/s
  // Acknowledged SUBMITs per second of the probe's measured send span.
  double achieved = 0.0;
  double p99_ms = 0.0;
  size_t failed = 0;
  bool pass = false;
};

struct LiveResult {
  std::string error;   // the session could not be run at all
  double submit_p50_ms = 0.0;
  double submit_p99_ms = 0.0;
  double status_p99_ms = 0.0;
  double gen_lag_p99_ms = 0.0;
  double max_submit_rate = 0.0;
  std::vector<ProbeResult> probes;
  size_t attempted = 0;
  size_t failed = 0;
  size_t window_submits = 0;
  size_t window_statuses = 0;
  // Host time of each phase (window, probes, drain, checks).
  std::vector<std::pair<std::string, double>> phase_s;
  coda::service::ServeCounters counters;
  // The window's request lines exactly as sent (for the layer timings).
  std::vector<std::string> window_lines;
  std::vector<std::string> checks_failed;
};

LiveResult run_live(const LiveSpec& spec);

// Median over consecutive `window_s` windows (by due time) of the q-th
// quantile of the latencies whose request fell due in the window. Keeps one
// long stall from deciding a run's tail figure alone; failures (+inf) still
// count inside their window.
double windowed_quantile(const std::vector<std::pair<double, double>>& due_ms,
                         double window_s, double q);

}  // namespace perfbench
