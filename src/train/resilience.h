// Graceful degradation under network brown-outs.
//
// The paper's question — does compressing activations help? — is usually
// "no" on a healthy cluster and "yes" once a boundary link degrades (§5,
// slow-network columns). That makes compression a *resilience* knob: a job
// that would stall behind a degraded link can trade a little fidelity for
// staying on its throughput target. This controller automates the trade.
//
// It watches one signal per pipeline boundary: the effective-bandwidth
// fraction (observed bandwidth / nominal bandwidth, in (0, 1]; the sim side
// derives it from transfer times, a real deployment from NCCL timing). Each
// observation updates an EWMA, and each boundary's sim::HysteresisLadder
// (sim/hysteresis.h) walks
//
//   kNone (baseline, fp16)  ->  kQuant8 (Q3, 8-bit)  ->  kTopK (T1, top-k)
//
// reading a breach when the smoothed signal is below `escalate_below`, and
// healthy when it is above `recover_above`: `hold_steps` consecutive
// breaches escalate one rung, `hold_steps` consecutive healthy readings
// de-escalate one. A link flapping around one threshold cannot make the
// controller flap with it (tests/recovery_test.cpp pins this).
//
// The controller is pure bookkeeping — deterministic in its observation
// sequence, no RNG, no clock — so a simulated sweep and a replayed trace
// reach identical decisions. With every signal healthy it never leaves
// kNone, and bench output with the controller idle is byte-identical to not
// having one (the golden-table acceptance bar).
#pragma once

#include <cstdint>
#include <vector>

#include "compress/settings.h"
#include "sim/hysteresis.h"

namespace actcomp::train {

/// Compression rungs, mildest first. Escalation walks down the list.
enum class DegradeLevel { kNone = 0, kQuant8 = 1, kTopK = 2 };

const char* degrade_level_label(DegradeLevel level);

/// The compress::Setting a rung maps to: kNone -> kBaseline (fp16),
/// kQuant8 -> kQ3 (8-bit quantization), kTopK -> kT1 (top-k sparsification).
compress::Setting degrade_setting(DegradeLevel level);

struct ResilienceConfig {
  /// Escalate one rung once the smoothed bandwidth fraction has been below
  /// this for `hold_steps` consecutive observations.
  double escalate_below = 0.6;
  /// De-escalate one rung once it has been above this for `hold_steps`
  /// consecutive observations. Must exceed escalate_below (the gap is the
  /// hysteresis band).
  double recover_above = 0.9;
  /// Consecutive observations on one side of a threshold before acting.
  int hold_steps = 3;
  /// EWMA smoothing: smoothed = alpha * sample + (1 - alpha) * smoothed.
  /// 1.0 = no smoothing (react to raw samples).
  double ewma_alpha = 0.5;

  /// Throws std::invalid_argument with a precise message on bad knobs.
  void validate() const;
};

/// Per-boundary EWMA adapter over sim::HysteresisLadder. Feed it one
/// bandwidth-fraction sample per boundary per step via observe(); read the
/// decision back with level() / setting(). Deterministic in the observation
/// sequence.
class DegradationController {
 public:
  /// Validates `cfg`; `num_boundaries` >= 1.
  DegradationController(const ResilienceConfig& cfg, int num_boundaries);

  /// Record one sample for `boundary` (fraction in [0, ~1]; values above 1
  /// are clamped sane but legal). Returns the boundary's level after any
  /// transition. Bumps the train.resilience.{escalations,deescalations}
  /// counters when it acts.
  DegradeLevel observe(int boundary, double bandwidth_fraction);

  int num_boundaries() const { return static_cast<int>(state_.size()); }
  DegradeLevel level(int boundary) const;
  /// The setting a binder should apply on `boundary` right now.
  compress::Setting setting(int boundary) const {
    return degrade_setting(level(boundary));
  }
  /// Worst rung across all boundaries (kNone when everything is healthy).
  DegradeLevel max_level() const;
  /// Current EWMA of the boundary's bandwidth fraction (the first sample
  /// seeds it directly).
  double smoothed(int boundary) const;

  /// Lifetime transition counts, summed over boundaries.
  int64_t escalations() const { return escalations_; }
  int64_t deescalations() const { return deescalations_; }

 private:
  struct BoundaryState {
    sim::HysteresisLadder ladder;
    double ewma = 0.0;
    bool seeded = false;
  };

  ResilienceConfig cfg_;
  std::vector<BoundaryState> state_;
  int64_t escalations_ = 0;
  int64_t deescalations_ = 0;
};

}  // namespace actcomp::train
