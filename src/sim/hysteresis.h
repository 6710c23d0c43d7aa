// The escalate/de-escalate policy every degradation controller shares.
//
// The paper finds that compressing activations pays only once a link is
// slow (§5, slow-network columns). The repo acts on that in two places, and
// both are signal adapters over this one ladder:
// train::DegradationController reads an EWMA of boundary bandwidth, and
// sim::SloDegradationController reads the windowed end-to-end p99. Each
// adapter turns an observation into one Reading against its two thresholds;
// the ladder
//
//   * escalates one rung after `hold` consecutive breach readings,
//   * de-escalates one rung after `hold` consecutive healthy readings,
//   * resets both runs on a band reading (the signal sits between the two
//     thresholds), and needs a fresh run after every transition.
//
// Two thresholds plus a hold window make hysteresis: a signal flapping
// around one threshold, or sitting in the dead band, cannot make the ladder
// flap with it. The ladder is pure bookkeeping (no RNG, no clock), so it is
// deterministic in its reading sequence.
#pragma once

#include <cstdint>

namespace actcomp::sim {

class HysteresisLadder {
 public:
  /// One observation against an adapter's two thresholds.
  enum class Reading { kBreach, kBand, kHealthy };

  /// Levels 0 (healthy) .. rungs - 1. Throws std::invalid_argument unless
  /// rungs >= 1 and hold >= 1.
  HysteresisLadder(int rungs, int hold);

  /// Applies one reading; returns the level after any transition.
  int observe(Reading r);

  int level() const { return level_; }
  int max_level_seen() const { return max_seen_; }
  int64_t escalations() const { return escalations_; }
  int64_t deescalations() const { return deescalations_; }

 private:
  int rungs_;
  int hold_;
  int level_ = 0;
  int max_seen_ = 0;
  int breach_run_ = 0;   ///< consecutive breach readings, capped at hold_
  int healthy_run_ = 0;  ///< consecutive healthy readings, capped at hold_
  int64_t escalations_ = 0;
  int64_t deescalations_ = 0;
};

}  // namespace actcomp::sim
