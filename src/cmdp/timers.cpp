#include "cmdp/timers.h"

#include <algorithm>

namespace cmdsmc::cmdp {

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
