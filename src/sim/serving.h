// Request-level inference serving simulator.
//
// Models one model replica serving an arrival stream of generation requests
// with continuous batching (Orca/vLLM-style): the scheduler admits requests
// FIFO under a max-batch and a token-budget cap, runs one PREFILL step for
// each admission wave, and otherwise advances every running request by one
// token per DECODE step. Requests join and leave the batch between steps —
// a finished request frees its budget immediately, so short requests never
// wait for long ones.
//
// The step costs come from a caller-supplied StepCostFn, so this module knows
// nothing about hardware or compression — parallel/make_serving_cost bridges
// ModelParallelSimulator's TP-collective pricing (compressed or not) into it.
//
// There is one scheduler: simulate_serving is a one-replica, fault-free call
// into the fleet loop of sim/serving_resilience.h, so the single replica and
// the fleet share every admission, pricing and accounting rule by
// construction. Each step starts at max(previous step's end, its admitted
// requests' arrivals) — the max/+ clock of a sim::Engine graph with one
// program-order lane, which tests/serving_test.cpp rebuilds and checks step
// for step. Everything is deterministic: same trace + config =>
// byte-identical report (the tests also pin Little's law, work
// conservation, and p99 monotonicity).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace actcomp::sim {

/// One generation request: `prompt_tokens` to prefill, then up to
/// `max_new_tokens` decode steps of one token each.
struct ServingRequest {
  double arrival_ms = 0.0;
  int64_t prompt_tokens = 0;
  int64_t max_new_tokens = 0;
};

/// Seeded Poisson arrival trace with fixed request shapes. The inter-arrival
/// exponentials come from one std::mt19937_64 via inverse-CDF over raw 64-bit
/// draws (no std::distribution, so the trace is identical across standard
/// libraries). The same seed at two rates yields the SAME unit-exponential
/// sequence scaled by 1/rate — arrival order is preserved, which is what
/// makes "higher rate never lowers p99" a testable property.
struct PoissonTraceSpec {
  double rate_per_s = 1.0;
  int num_requests = 64;
  int64_t prompt_tokens = 128;
  int64_t max_new_tokens = 32;
  uint64_t seed = 1;
};
std::vector<ServingRequest> poisson_trace(const PoissonTraceSpec& spec);

/// Shape of one scheduler step, priced by the cost function. For a prefill
/// step `new_tokens` is the sum of admitted prompt lengths; for a decode step
/// it equals `seqs` (one token per running request). `context_tokens` is the
/// total number of cached positions attended across all new tokens (the
/// attention term of the step's FLOPs).
struct StepShape {
  bool prefill = false;
  int64_t seqs = 0;
  int64_t new_tokens = 0;
  int64_t context_tokens = 0;
};

/// Wall-clock milliseconds one step of this shape takes on the replica.
using StepCostFn = std::function<double(const StepShape&)>;

struct ServingConfig {
  int64_t max_batch = 16;     ///< concurrent requests per replica
  int64_t token_budget = 4096;  ///< KV slots: sum of admitted prompt+max_new
  StepCostFn step_cost;       ///< required
};

/// Per-request realized timeline. TTFT for a request that generates nothing
/// (max_new_tokens == 0) is undefined and excluded from percentiles; TPOT
/// needs >= 2 generated tokens.
struct RequestTiming {
  double arrival_ms = 0.0;
  double admit_ms = 0.0;        ///< start of its prefill step
  double first_token_ms = 0.0;  ///< end of its prefill step
  double done_ms = 0.0;
  int64_t prompt_tokens = 0;
  int64_t generated = 0;

  double ttft_ms() const { return first_token_ms - arrival_ms; }
  double e2e_ms() const { return done_ms - arrival_ms; }
  double tpot_ms() const {
    return generated > 1 ? (done_ms - first_token_ms) /
                               static_cast<double>(generated - 1)
                         : 0.0;
  }
};

struct StepTiming {
  bool prefill = false;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int64_t seqs = 0;
  int64_t new_tokens = 0;
  /// Which replica ran the step. Always 0 for simulate_serving; the
  /// multi-replica scheduler (sim/serving_resilience.h) fills it in.
  int replica = 0;
};

/// Nearest-rank percentiles (the bench::FaultSweep convention). All zero for
/// an empty sample set.
struct LatencyPercentiles {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};
LatencyPercentiles latency_percentiles(std::vector<double> samples);

struct ServingReport {
  int64_t completed = 0;
  int64_t generated_tokens = 0;
  double makespan_ms = 0.0;  ///< first arrival to last completion
  double busy_ms = 0.0;      ///< sum of step durations on the replica
  /// Time-average of in-flight requests over [first arrival, last done],
  /// integrated from the arrival/completion event sweep — an independent
  /// measurement the Little's-law property test checks against
  /// completed/makespan x mean e2e latency.
  double mean_concurrency = 0.0;
  LatencyPercentiles ttft;  ///< arrival -> first token
  LatencyPercentiles tpot;  ///< per generated token after the first
  LatencyPercentiles e2e;   ///< arrival -> completion
  std::vector<RequestTiming> requests;  ///< input order
  std::vector<StepTiming> steps;

  double throughput_tok_s() const {
    return makespan_ms > 0.0
               ? static_cast<double>(generated_tokens) / makespan_ms * 1e3
               : 0.0;
  }
};

/// Throws std::invalid_argument with a precise message on: missing step_cost,
/// max_batch/token_budget < 1, non-finite or negative arrival, unsorted
/// arrivals, a zero-length prompt, negative max_new_tokens, or a request
/// whose prompt + max_new_tokens exceeds the token budget (it could never be
/// admitted — the scheduler would livelock).
void validate_serving_inputs(const std::vector<ServingRequest>& requests,
                             const ServingConfig& cfg);

/// Runs the trace to completion on one fault-free replica: the `serving`
/// report of simulate_serving_resilient with num_replicas = 1 and
/// cost_ladder = {cfg.step_cost}. An empty trace returns an empty report.
ServingReport simulate_serving(const std::vector<ServingRequest>& requests,
                               const ServingConfig& cfg);

}  // namespace actcomp::sim
