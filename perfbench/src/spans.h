// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call into a layer (a scheduler kick, a telemetry
// read, one simulator step). Spans nest: the recorder keeps the open spans
// on a stack, and when a span closes its duration is charged to its own
// name and to its parent's child time, so each name's self time is its
// total minus the time its child spans cover. Aggregates stay in memory and
// are read once the traced run ends; nothing is written while it runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class SpanRecorder {
 public:
  struct Totals {
    std::string name;
    double total_s = 0.0;
    double child_s = 0.0;  // time covered by directly nested spans
    uint64_t count = 0;
    double self_s() const { return total_s - child_s; }
  };

  // Returns the id of `name`, registering it on first use.
  int id(const std::string& name);

  void begin(int id);
  void end();

  // Depth of currently open spans (0 between top-level spans).
  size_t depth() const { return stack_.size(); }
  const Totals& totals(int id) const { return totals_[id]; }
  const std::vector<Totals>& all() const { return totals_; }
  // Sum of every top-level span's duration.
  double top_level_s() const { return top_level_s_; }

 private:
  struct Open {
    int id = 0;
    Clock::time_point start;
    double child_s = 0.0;
  };
  std::vector<Totals> totals_;
  std::vector<Open> stack_;
  double top_level_s_ = 0.0;
};

// Scoped span; a null recorder makes it a no-op.
class Span {
 public:
  Span(SpanRecorder* rec, int id) : rec_(rec) {
    if (rec_ != nullptr) {
      rec_->begin(id);
    }
  }
  ~Span() {
    if (rec_ != nullptr) {
      rec_->end();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* rec_;
};

}  // namespace perfbench
