#include "sim/hysteresis.h"

#include <algorithm>

#include "tensor/check.h"

namespace actcomp::sim {

HysteresisLadder::HysteresisLadder(int rungs, int hold)
    : rungs_(rungs), hold_(hold) {
  ACTCOMP_CHECK(rungs >= 1,
                "HysteresisLadder: rungs = " << rungs << ", must be >= 1");
  ACTCOMP_CHECK(hold >= 1,
                "HysteresisLadder: hold = " << hold << ", must be >= 1");
}

int HysteresisLadder::observe(Reading r) {
  // Runs stop at hold_, which is all a transition needs, so a signal stuck
  // at the top or bottom rung cannot overflow them.
  breach_run_ = r == Reading::kBreach ? std::min(breach_run_ + 1, hold_) : 0;
  healthy_run_ =
      r == Reading::kHealthy ? std::min(healthy_run_ + 1, hold_) : 0;
  if (breach_run_ == hold_ && level_ < rungs_ - 1) {
    ++level_;
    ++escalations_;
    max_seen_ = std::max(max_seen_, level_);
    breach_run_ = 0;
  } else if (healthy_run_ == hold_ && level_ > 0) {
    --level_;
    ++deescalations_;
    healthy_run_ = 0;
  }
  return level_;
}

}  // namespace actcomp::sim
