// Crash-recovery simulation: checkpointed training under fail-stop faults.
//
// The pipeline engine (sim/engine.h) prices ONE iteration; this layer models
// the multi-iteration timeline of a long training job whose stages crash
// fail-stop (CrashSpec in sim/hardware.h, carried on FaultProfile::crash):
//
//   run k steps -> write checkpoint (cost C) -> run k steps -> ...
//   ... crash! -> detection delay -> restart cost -> replay every step
//   since the last checkpoint -> continue
//
// simulate_recovery() plays that timeline exactly, event by event, with
// every crash arrival drawn from a seeded exponential stream (same
// hand-rolled 53-bit uniforms as sim/faults.cpp, so the realization is
// identical across standard libraries). It reports wall-clock, per-cause
// overhead, and *goodput* — useful steps per second, the number that tells
// an operator whether their checkpoint interval is paying for itself.
//
// The analytic side is the classic Young/Daly model: for checkpoint cost C
// and job-level MTBF M the optimal interval is tau* = sqrt(2 C M), and the
// first-order expected wall clock for any interval tau is
//
//   W(tau) ~= T (1 + C/tau) (1 + (tau/2 + C/2 + R) / M)
//
// (T = total useful work, R = detection + restart). Monte-Carlo sweeps
// (sweep_checkpoint_interval, bench/ablation_recovery) sit within 15% of
// tau* across the MTBF range — the acceptance bar tests/recovery_test.cpp
// pins.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "sim/hardware.h"

namespace actcomp::sim {

/// One recovery scenario: a job of `total_steps` useful steps, each costing
/// `step_ms` (price it with the pipeline engine / ModelParallelSimulator),
/// checkpointing every `ckpt_interval_steps` at `ckpt_cost_ms` a write,
/// under `crash`. Crashes arrive while the job is up (working, replaying,
/// or checkpointing); detection and restart windows are crash-free (the
/// first-order assumption the analytic model shares).
struct RecoveryConfig {
  double step_ms = 1.0;
  int64_t total_steps = 1000;
  /// Checkpoint after every k completed steps; 0 = never checkpoint (a
  /// crash then replays from step 0).
  int64_t ckpt_interval_steps = 100;
  double ckpt_cost_ms = 0.0;
  CrashSpec crash;
  uint64_t seed = 0;

  /// Throws std::invalid_argument with a precise message on bad knobs.
  void validate() const;
};

enum class RecoverySegmentKind { kWork, kReplay, kCheckpoint, kDetect, kRestart };
const char* recovery_segment_label(RecoverySegmentKind k);

/// One contiguous span of the realized timeline. Work/replay segments carry
/// the step range they executed; crashes are instants (RecoveryResult::
/// crash_times_ms), not segments.
struct RecoverySegment {
  RecoverySegmentKind kind = RecoverySegmentKind::kWork;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int64_t step_begin = 0;  ///< first step executed in this span (work/replay)
  int64_t step_end = 0;    ///< one past the last
};

struct RecoveryResult {
  double wall_ms = 0.0;      ///< total wall clock to finish every useful step
  int crashes = 0;
  double lost_ms = 0.0;      ///< work discarded by rollbacks (incl. partial steps)
  double replay_ms = 0.0;    ///< time re-executing previously-completed steps
  double ckpt_ms = 0.0;      ///< checkpoint-write overhead (incl. torn writes)
  double downtime_ms = 0.0;  ///< detection + restart time
  int64_t useful_steps = 0;

  std::vector<RecoverySegment> segments;  ///< realized timeline, in order
  std::vector<double> crash_times_ms;     ///< crash instants, in order

  /// Useful steps per wall-clock second — the metric the interval sweep
  /// optimizes.
  double goodput_steps_per_sec() const {
    return wall_ms > 0.0 ? useful_steps / wall_ms * 1e3 : 0.0;
  }
};

/// Deterministic in (config, seed): same inputs, bit-identical result
/// (including the segment timeline).
RecoveryResult simulate_recovery(const RecoveryConfig& cfg);

/// Young/Daly optimal checkpoint interval sqrt(2 C M) in ms of useful work
/// between checkpoints. Requires C > 0 and M > 0.
double young_daly_interval_ms(double ckpt_cost_ms, double effective_mtbf_ms);

/// First-order expected wall clock at interval tau (formula above). With
/// crashes disabled this is exact: T + C * floor((steps-1)/k).
double analytic_wall_ms(const RecoveryConfig& cfg, double interval_ms);

/// Monte-Carlo sweep of the checkpoint interval: geometric grid of
/// `grid_points` intervals spanning [tau*/span, tau* x span] around the
/// Young/Daly optimum, `trials` seeded replays each (seed = base.seed + t,
/// the same seeds for every interval — common random numbers keep the
/// argmin stable). Returns per-interval mean wall/goodput plus the
/// simulated-vs-analytic optimum comparison.
struct IntervalSweepPoint {
  int64_t interval_steps = 0;
  double interval_ms = 0.0;
  double mean_wall_ms = 0.0;
  double mean_goodput = 0.0;
  double mean_crashes = 0.0;
  double analytic_wall = 0.0;
};
struct IntervalSweepResult {
  std::vector<IntervalSweepPoint> points;
  double young_daly_ms = 0.0;
  /// Simulated optimal interval: the vertex of a quadratic (in log tau) fit
  /// to the window of grid points around the raw argmin — the curve is
  /// nearly flat at the minimum, so the fit is what tames residual
  /// Monte-Carlo noise. Falls back to the raw argmin if the fit degenerates.
  double best_interval_ms = 0.0;
  int64_t best_interval_steps = 0;
  /// best_interval_ms / young_daly_ms — 1 (signed relative deviation).
  double deviation() const {
    return young_daly_ms > 0.0 ? best_interval_ms / young_daly_ms - 1.0 : 0.0;
  }
};
IntervalSweepResult sweep_checkpoint_interval(const RecoveryConfig& base,
                                              int trials, double span = 4.0,
                                              int grid_points = 25);

/// Chrome tracing JSON of a realized timeline: one row of work / replay /
/// checkpoint / detect / restart slices plus an instant event per crash.
/// Loads in Perfetto alongside write_chrome_trace / the profiler bridge.
void write_recovery_trace(std::ostream& os, const RecoveryResult& r);

}  // namespace actcomp::sim
