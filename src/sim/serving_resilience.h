// Fault-tolerant multi-replica serving on top of sim/serving + sim/faults.
//
// This is the repo's one serving scheduler. simulate_serving (sim/serving.h)
// is its one-replica, fault-free case; the knobs below model the fleet
// around that replica — the part of a production serving stack that decides
// where a request runs and what happens when that goes wrong:
//
//   * replica pool — N copies of the same model, each priced by the shared
//     cost ladder and each with its own seeded ReplicaFaultSpec (fail-stop
//     crash/repair cycles that kill in-flight work, and brown-out windows
//     that multiply step durations);
//   * router — pluggable policies: blind round-robin, join-shortest-queue
//     over live copies, and health-aware JSQ that also ejects replicas for
//     eject_ms after a request times out on them;
//   * retries and hedging — a request whose copy dies (crash) or times out
//     is re-dispatched up to max_attempts times with exponential backoff;
//     optionally a hedge copy is dispatched to a DIFFERENT replica once the
//     first copy has been outstanding hedge_after_ms, first-wins, the loser
//     is cancelled (its generated tokens are accounted as waste, not
//     goodput);
//   * admission control — fleet-wide token backpressure (shed on arrival when
//     reserved + queued KV tokens would exceed max_queued_tokens) and
//     predicted-wait shedding at the routed replica; shed requests are
//     reported separately and never pollute the latency percentiles;
//   * SLO-aware degradation — the serving-side signal adapter over the
//     sim::HysteresisLadder that train/resilience also drives: measured e2e
//     p99 over a sliding window breaching the SLO escalates the fleet one
//     rung down the compression cost ladder (w/o -> Q8 -> Q2/T3, built by
//     parallel::make_serving_cost_ladder); sustained recovery de-escalates.
//     This operationalizes the paper's thesis — compression buys little on a
//     healthy fleet but recovers the SLO on a degraded one.
//
// Determinism: the scheduler is a single-threaded discrete-event loop whose
// only randomness is the per-replica ReplicaFaultProcess streams (seeded,
// raw-draw uniforms), so same trace + config => byte-identical report, on any
// machine, at any thread-pool width. Arrivals are read through a cursor over
// the sorted trace, not pushed as events; every arrival at an instant is
// handled before the heap events at that instant. With one replica and every
// knob off the loop IS simulate_serving, so the clean path's identity with it
// is structural; tests/serving_resilience_test.cpp still pins it, and the
// serving goldens pin both.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/faults.h"
#include "sim/hysteresis.h"
#include "sim/serving.h"

namespace actcomp::sim {

/// How the router picks a replica for a fresh (or retried/hedged) copy.
enum class RoutePolicy {
  kRoundRobin,        ///< blind cyclic assignment, even to down replicas
  kJoinShortestQueue, ///< fewest live copies among UP replicas
  kHealthAware,       ///< JSQ over up && not-ejected; timeouts eject
};
const char* route_policy_label(RoutePolicy p);

/// Retry / hedging policy, applied per request. Defaults = one attempt,
/// never time out, never hedge — i.e. exactly the single-dispatch semantics
/// of the clean path.
struct RetryPolicy {
  int max_attempts = 1;       ///< total primary dispatches (>= 1)
  double backoff_ms = 0.0;    ///< delay before retry a is backoff * 2^(a-1)
  double timeout_ms = 0.0;    ///< abandon a copy outstanding this long; 0 = never
  double hedge_after_ms = 0.0; ///< duplicate to another replica; 0 = never
};

/// Load shedding at arrival time. Retried/hedged copies are exempt — once
/// admitted, a request is owed a best effort. Defaults = admit everything.
struct AdmissionPolicy {
  /// Shed when fleet-wide held + queued KV tokens would exceed this. 0 = off.
  int64_t max_queued_tokens = 0;
  /// Shed when the routed replica's predicted wait (remaining step + queue
  /// length x EWMA step time + remaining downtime) exceeds this. 0 = off.
  double shed_wait_over_ms = 0.0;
};

/// Hysteresis spec for the SLO degradation controller (the serving twin of
/// train::ResilienceConfig): p99 over each `window` completions is compared
/// to the SLO; `hold_windows` consecutive breaches escalate one ladder rung,
/// `hold_windows` consecutive windows below recover_fraction x SLO
/// de-escalate one. The dead band between the two thresholds is what makes
/// oscillation on a constant load impossible.
struct ServingDegradeSpec {
  bool enabled = false;
  int window = 32;              ///< completions per p99 measurement
  int hold_windows = 2;         ///< consecutive windows before a transition
  double recover_fraction = 0.7; ///< de-escalate below this fraction of SLO
};

/// Windowed-p99 adapter over HysteresisLadder: each full window of e2e
/// latencies is one reading. Standalone and unit-testable: feed it every
/// completed request's e2e latency in completion order; read back the
/// active ladder level.
class SloDegradationController {
 public:
  /// Throws std::invalid_argument on window/hold_windows < 1,
  /// recover_fraction outside (0, 1), slo_p99_ms <= 0, or num_levels < 1.
  /// validate_resilient_serving_inputs checks a fleet's spec through it.
  SloDegradationController(const ServingDegradeSpec& spec, double slo_p99_ms,
                           int num_levels);

  /// Records one completion; returns the (possibly changed) active level.
  int observe_e2e(double e2e_ms);

  int level() const { return ladder_.level(); }
  int max_level_seen() const { return ladder_.max_level_seen(); }
  int escalations() const { return static_cast<int>(ladder_.escalations()); }
  int deescalations() const {
    return static_cast<int>(ladder_.deescalations());
  }
  /// p99 of the most recently completed window (0 before the first window).
  double last_window_p99() const { return last_p99_; }

 private:
  ServingDegradeSpec spec_;
  double slo_ms_;
  HysteresisLadder ladder_;
  double last_p99_ = 0.0;
  std::vector<double> buf_;
};

struct ResilientServingConfig {
  int num_replicas = 1;
  RoutePolicy policy = RoutePolicy::kRoundRobin;
  int64_t max_batch = 16;      ///< per replica, as ServingConfig
  int64_t token_budget = 4096; ///< per replica KV budget
  /// Compression cost ladder, cheapest-quality last. Rung 0 prices the clean
  /// path; the degradation controller walks down the ladder under SLO
  /// pressure. parallel::make_serving_cost_ladder builds the canonical
  /// w/o -> Q8 -> Q2 -> T3 ladder from a calibrated simulator.
  std::vector<StepCostFn> cost_ladder;
  /// Per-replica fault scenarios: empty (all healthy) or size num_replicas.
  std::vector<ReplicaFaultSpec> replica_faults;
  RetryPolicy retry;
  AdmissionPolicy admission;
  /// End-to-end p99 SLO in ms; required (> 0) when degrade.enabled, also
  /// used by the report's slo_met flag. 0 = no SLO.
  double slo_e2e_p99_ms = 0.0;
  ServingDegradeSpec degrade;
  /// Health-aware ejection window after a timeout on a replica. 0 = off.
  double eject_ms = 0.0;

  /// The single-replica ServingConfig this fleet degenerates to (rung 0).
  ServingConfig base_config() const {
    return {max_batch, token_budget,
            cost_ladder.empty() ? StepCostFn{} : cost_ladder.front()};
  }
};

enum class RequestOutcome {
  kCompleted, ///< some copy finished; timing recorded
  kShed,      ///< rejected at admission, never dispatched
  kFailed,    ///< every attempt died (crash/timeout), retries exhausted
};

struct ReplicaStats {
  int64_t completed = 0;  ///< requests whose winning copy ran here
  int64_t steps = 0;
  double busy_ms = 0.0;
  int64_t crashes = 0;
  double down_ms = 0.0;   ///< total repair time scheduled
  int64_t timeouts = 0;   ///< copies abandoned while on this replica
};

struct ResilientServingReport {
  /// Aggregates over COMPLETED requests only (shed/failed requests keep
  /// zeroed timings in serving.requests and are excluded from percentiles,
  /// throughput and concurrency). Steps from every replica, sorted by start
  /// time; StepTiming::replica says who ran each.
  ServingReport serving;
  std::vector<RequestOutcome> outcomes;  ///< input order, one per request

  int64_t offered = 0;       ///< total requests in the trace
  int64_t shed = 0;
  int64_t failed = 0;
  int64_t dispatches = 0;    ///< copies dispatched (primary + retry + hedge)
  int64_t retries = 0;
  int64_t hedges = 0;
  int64_t hedge_wins = 0;    ///< requests won by the hedge copy
  int64_t timeouts = 0;
  int64_t crashes = 0;
  int64_t killed_copies = 0; ///< copies killed by replica crashes
  /// Tokens generated by copies that did not win (cancelled, killed, timed
  /// out) — real work the fleet did that never reached a user.
  int64_t wasted_tokens = 0;

  int escalations = 0;
  int deescalations = 0;
  int final_level = 0;
  int max_level_seen = 0;

  std::vector<ReplicaStats> replicas;

  /// Completed tokens per second of makespan — the goodput the SLO buys.
  double goodput_tok_s() const { return serving.throughput_tok_s(); }
  double shed_rate() const {
    return offered > 0 ? static_cast<double>(shed) / static_cast<double>(offered)
                       : 0.0;
  }
  bool slo_met(double slo_p99_ms) const {
    return slo_p99_ms <= 0.0 || serving.e2e.p99_ms <= slo_p99_ms;
  }
};

/// Throws std::invalid_argument with a precise message on: num_replicas < 1,
/// an empty or unset cost ladder rung, replica_faults of the wrong size or
/// with invalid specs, retry.max_attempts outside [1, 16], non-finite or
/// negative retry/admission/SLO/eject knobs, hedging with a single replica,
/// degradation without a positive SLO or with a single-rung ladder, a bad
/// degrade window, plus everything validate_serving_inputs checks against
/// the per-replica base config.
void validate_resilient_serving_inputs(
    const std::vector<ServingRequest>& requests,
    const ResilientServingConfig& cfg);

/// Runs the trace to completion (every request resolves as completed, shed
/// or failed — the loop always terminates). Deterministic: same trace +
/// config => byte-identical report.
ResilientServingReport simulate_serving_resilient(
    const std::vector<ServingRequest>& requests,
    const ResilientServingConfig& cfg);

}  // namespace actcomp::sim
