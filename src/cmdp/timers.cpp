#include "cmdp/timers.h"

#include <algorithm>

namespace cmdsmc::cmdp {

std::size_t PhaseTimers::phase_id(const std::string& name) {
  auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end())
    return static_cast<std::size_t>(it - names_.begin());
  names_.push_back(name);
  seconds_.push_back(0.0);
  start_.emplace_back();
  if (lanes_ != 0) lane_seconds_.resize(names_.size() * lanes_, 0.0);
  return names_.size() - 1;
}

void PhaseTimers::enable_lane_accumulation(unsigned lanes) {
  lanes_ = lanes;
  lane_seconds_.assign(names_.size() * lanes_, 0.0);
}

double PhaseTimers::total_seconds() const {
  double total = 0.0;
  for (double s : seconds_) total += s;
  return total;
}

void PhaseTimers::reset() {
  std::fill(seconds_.begin(), seconds_.end(), 0.0);
  std::fill(lane_seconds_.begin(), lane_seconds_.end(), 0.0);
}

}  // namespace cmdsmc::cmdp
