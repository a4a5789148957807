#include "spans.h"

namespace perfbench {

int SpanRecorder::id(const std::string& name) {
  for (size_t i = 0; i < totals_.size(); ++i) {
    if (totals_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  totals_.push_back(Totals{name});
  return static_cast<int>(totals_.size() - 1);
}

void SpanRecorder::begin(int id) {
  stack_.push_back(Open{id, Clock::now(), 0.0});
}

void SpanRecorder::end() {
  const Open open = stack_.back();
  stack_.pop_back();
  const double d = seconds_between(open.start, Clock::now());
  Totals& t = totals_[open.id];
  t.total_s += d;
  t.child_s += open.child_s;
  t.count += 1;
  if (stack_.empty()) {
    top_level_s_ += d;
  } else {
    stack_.back().child_s += d;
  }
}

}  // namespace perfbench
