// Deterministic fault injection for the pipeline simulator.
//
// The paper's throughput tables assume a clean cluster; real model-parallel
// jobs see stragglers and flaky links — exactly the regime (slow/contended
// networks) where activation compression is supposed to pay. This layer
// perturbs the op graph that sim/pipeline.cpp builds, while Engine::run()
// itself stays pure (no RNG anywhere inside the engine):
//
//   * compute jitter — every compute op's duration is scaled by an
//     independent factor 1 + U[0, compute_jitter]; one stage can further be
//     a persistent straggler (a fixed slowdown on all its ops);
//   * link degradation — persistent bandwidth loss on one (or every)
//     boundary: transfer durations scale by LinkFaultSpec::degrade_factor;
//   * transient outages — each transfer attempt independently hangs with
//     probability outage_rate. A hung attempt occupies the link resource
//     until timeout_ms (it is a real op on the link, so other transfers
//     queue behind it), then the sender backs off exponentially (a pure
//     delay — the link is free meanwhile) and retries, up to max_retries
//     failures; the next attempt always succeeds.
//
// Every stochastic draw comes from one std::mt19937_64 seeded with
// FaultProfile::seed and consumed in op-graph construction order, so a given
// (graph, profile) pair always realizes the same fault pattern. All
// perturbations are duration-lengthening (multipliers >= 1, extra serial
// ops), which is what makes "faulted makespan >= clean makespan" a testable
// invariant (tests/engine_test.cpp sweeps it over seeds).
#pragma once

#include <cmath>
#include <cstdint>
#include <random>

#include "sim/hardware.h"

namespace actcomp::sim {

/// U[0, 1) from the 53 high mantissa bits of one raw 64-bit draw. The repo's
/// canonical stochastic primitive (FaultInjector, poisson_trace, the replica
/// fault processes all share it): unlike std::uniform_real_distribution the
/// realization is identical across standard libraries, which is what makes
/// seeded fault patterns a portable golden-test surface.
inline double uniform_raw(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// Exponential draw with mean `mean` by inverse CDF on uniform_raw (1 - u
/// lies in (0, 1], so the log is finite): the crash arrivals of
/// simulate_recovery and both renewal processes of ReplicaFaultProcess.
inline double exponential_raw(std::mt19937_64& rng, double mean) {
  return -std::log(1.0 - uniform_raw(rng)) * mean;
}

/// A complete fault scenario. Default-constructed = everything disabled; the
/// simulator's clean path is then bit-for-bit unchanged.
struct FaultProfile {
  /// Per-op multiplicative compute jitter: duration *= 1 + U[0, jitter].
  double compute_jitter = 0.0;
  /// Persistent straggler stage (-1 = none); all its compute ops are scaled
  /// by straggler_slowdown (>= 1) on top of the jitter.
  int straggler_stage = -1;
  double straggler_slowdown = 1.0;
  /// Link faults, applied to boundary `faulty_boundary`, or to every
  /// boundary (and the interleaved wrap link) when faulty_boundary == -1.
  /// For a p-stage pipeline, boundaries are 0..p-2 and the wrap link is
  /// addressed as p-1.
  LinkFaultSpec link;
  int faulty_boundary = -1;
  /// Fail-stop stage crashes. NOT consumed by the per-iteration injector
  /// below (a crash kills the whole job, not one op): the multi-iteration
  /// recovery layer (sim/recovery.h) reads it to model crash -> detection ->
  /// restart -> rollback-and-replay against a checkpoint interval. enabled()
  /// therefore ignores it, which keeps the per-iteration clean path
  /// bit-identical when only crashes are configured.
  CrashSpec crash;
  /// Seed for every stochastic draw. Two profiles differing only in seed
  /// realize different jitter/outage patterns over the same scenario.
  uint64_t seed = 0;

  /// True if any perturbation is active.
  bool enabled() const;
  /// Throws std::invalid_argument with a precise message if any knob is out
  /// of range (negative jitter, slowdown/degrade < 1, rate outside [0, 1),
  /// negative timeout/backoff, max_retries outside [1, 16] while outages
  /// are on).
  void validate() const;

  // Presets used by the benches, the explorer's --faults mode, and tests.
  static FaultProfile none();
  static FaultProfile straggler(int stage, double slowdown, uint64_t seed);
  static FaultProfile degraded_link(double factor, uint64_t seed);
  static FaultProfile flaky_link(double outage_rate, double timeout_ms,
                                 double backoff_ms, uint64_t seed);
  /// Everything at once: 10% jitter, one 1.5x straggler, 2x degradation and
  /// 5% outages on every link.
  static FaultProfile chaos(uint64_t seed);
};

/// Consumes a FaultProfile while sim/pipeline.cpp builds the op graph. The
/// draw order is the graph construction order, which is deterministic, so
/// the injector is too. All multipliers returned are >= 1.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultProfile& profile);

  bool enabled() const { return enabled_; }
  const FaultProfile& profile() const { return profile_; }

  /// Multiplier for the next compute op on `stage`; consumes one RNG draw
  /// when jitter is active. Exactly 1.0 when faults are disabled.
  double compute_multiplier(int stage);
  /// Persistent degradation multiplier for transfers crossing `boundary`
  /// (the wrap link is stages - 1). Exactly 1.0 off the faulty boundary.
  double transfer_multiplier(int boundary) const;
  /// Number of hung attempts (0 = transfer succeeds immediately) for the
  /// next transfer on `boundary`; consumes RNG draws.
  int draw_outages(int boundary);
  /// Link occupancy of one hung attempt.
  double attempt_timeout_ms() const { return profile_.link.timeout_ms; }
  /// Pure-delay backoff before retry `attempt` (1-based): backoff * 2^(a-1).
  double backoff_ms(int attempt) const;

 private:
  bool link_faulty(int boundary) const;

  FaultProfile profile_;
  bool enabled_ = false;
  std::mt19937_64 rng_;  ///< every draw goes through uniform_raw above
};

/// Fault scenario for ONE serving replica (sim/serving_resilience.h). Two
/// independent renewal processes, both seeded from `seed`:
///
///   * fail-stop crashes — exponential up-time with mean `mtbf_ms`, then the
///     replica is down for `repair_ms` (in-flight and queued work is lost and
///     must be retried or fails);
///   * brown-outs — after an exponential healthy period with mean
///     `slow_mtbf_ms`, every step STARTED inside the next `slow_duration_ms`
///     window runs `slow_factor` (>= 1) times slower. This is the serving
///     twin of FaultProfile's persistent link degradation: the replica stays
///     up but its effective capacity drops, which is exactly the regime where
///     escalating to a cheaper wire format recovers the SLO.
///
/// Default-constructed = healthy forever: every step's duration multiplier
/// is exactly 1.0 and no crash is ever drawn, which is how simulate_serving
/// runs its one replica.
struct ReplicaFaultSpec {
  double mtbf_ms = 0.0;          ///< mean up-time between crashes; 0 = never
  double repair_ms = 0.0;        ///< downtime per crash
  double slow_mtbf_ms = 0.0;     ///< mean healthy time between brown-outs
  double slow_duration_ms = 0.0; ///< brown-out window length
  double slow_factor = 1.0;      ///< step-duration multiplier inside a window
  uint64_t seed = 0;

  /// True if any perturbation is active.
  bool enabled() const;
  /// Throws std::invalid_argument with a precise "ReplicaFaultSpec: ..."
  /// message on non-finite/negative durations, slow_factor < 1, or a
  /// brown-out process with a zero-length window.
  void validate() const;
};

/// Materializes one replica's fault timeline lazily and deterministically:
/// same spec => same crash instants and the same brown-out windows, consumed
/// in simulation order. Crash and brown-out draws come from two independent
/// mt19937_64 streams derived from the spec's seed, so enabling one process
/// never re-times the other.
class ReplicaFaultProcess {
 public:
  explicit ReplicaFaultProcess(const ReplicaFaultSpec& spec);

  const ReplicaFaultSpec& spec() const { return spec_; }

  /// Absolute time of the next crash given the replica is up from `from_ms`.
  /// +infinity when crashes are disabled. Consumes one crash-stream draw per
  /// call; the resilient scheduler calls it once at t = 0 and once per
  /// recovery.
  double draw_crash_after(double from_ms);

  /// Step-duration multiplier for a step starting at `start_ms` (>= 1;
  /// exactly 1.0 when brown-outs are disabled, so the clean path's durations
  /// are bit-identical). Calls must be non-decreasing in start_ms — the
  /// window sequence is advanced, never rewound.
  double slow_multiplier_at(double start_ms);

 private:
  ReplicaFaultSpec spec_;
  std::mt19937_64 crash_rng_;
  std::mt19937_64 slow_rng_;
  bool slow_seeded_ = false;
  double slow_start_ms_ = 0.0;  ///< current/next brown-out window
  double slow_end_ms_ = 0.0;
};

}  // namespace actcomp::sim
