#include "sim/serving.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "sim/faults.h"
#include "sim/serving_resilience.h"
#include "tensor/check.h"

namespace actcomp::sim {

std::vector<ServingRequest> poisson_trace(const PoissonTraceSpec& spec) {
  ACTCOMP_CHECK(spec.rate_per_s > 0.0,
                "poisson_trace: rate_per_s = " << spec.rate_per_s
                                               << ", must be > 0");
  ACTCOMP_CHECK(spec.num_requests >= 0,
                "poisson_trace: num_requests = " << spec.num_requests
                                                 << ", must be >= 0");
  ACTCOMP_CHECK(spec.prompt_tokens >= 1,
                "poisson_trace: prompt_tokens = " << spec.prompt_tokens
                                                  << ", must be >= 1");
  ACTCOMP_CHECK(spec.max_new_tokens >= 0,
                "poisson_trace: max_new_tokens = " << spec.max_new_tokens
                                                   << ", must be >= 0");
  std::mt19937_64 rng(spec.seed);
  std::vector<ServingRequest> out;
  out.reserve(static_cast<size_t>(spec.num_requests));
  double t_ms = 0.0;
  for (int i = 0; i < spec.num_requests; ++i) {
    // Inverse-CDF exponential inter-arrival, scaled from seconds to ms.
    t_ms += -std::log(1.0 - uniform_raw(rng)) / spec.rate_per_s * 1e3;
    out.push_back({t_ms, spec.prompt_tokens, spec.max_new_tokens});
  }
  return out;
}

LatencyPercentiles latency_percentiles(std::vector<double> samples) {
  LatencyPercentiles out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  auto pct = [&](double q) {  // nearest-rank, as bench::FaultSweep
    const auto n = static_cast<double>(samples.size());
    auto rank = static_cast<size_t>(std::ceil(q * n));
    return samples[std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1)];
  };
  out.p50_ms = pct(0.50);
  out.p95_ms = pct(0.95);
  out.p99_ms = pct(0.99);
  return out;
}

void validate_serving_inputs(const std::vector<ServingRequest>& requests,
                             const ServingConfig& cfg) {
  ACTCOMP_CHECK(static_cast<bool>(cfg.step_cost),
                "ServingConfig.step_cost is not set — the scheduler cannot "
                "price steps");
  ACTCOMP_CHECK(cfg.max_batch >= 1,
                "ServingConfig.max_batch = " << cfg.max_batch
                                             << ", must be >= 1");
  ACTCOMP_CHECK(cfg.token_budget >= 1,
                "ServingConfig.token_budget = " << cfg.token_budget
                                                << ", must be >= 1");
  for (size_t i = 0; i < requests.size(); ++i) {
    const ServingRequest& r = requests[i];
    ACTCOMP_CHECK(std::isfinite(r.arrival_ms) && r.arrival_ms >= 0.0,
                  "request " << i << ": arrival_ms = " << r.arrival_ms
                             << ", must be finite and >= 0");
    ACTCOMP_CHECK(i == 0 || requests[i - 1].arrival_ms <= r.arrival_ms,
                  "request " << i << ": arrivals must be sorted (got "
                             << r.arrival_ms << " after "
                             << requests[i - 1].arrival_ms << ")");
    ACTCOMP_CHECK(r.prompt_tokens >= 1,
                  "request " << i << ": prompt_tokens = " << r.prompt_tokens
                             << " — a zero-length prompt has nothing to "
                                "prefill");
    ACTCOMP_CHECK(r.max_new_tokens >= 0,
                  "request " << i << ": max_new_tokens = " << r.max_new_tokens
                             << ", must be >= 0");
    ACTCOMP_CHECK(r.prompt_tokens + r.max_new_tokens <= cfg.token_budget,
                  "request " << i << ": prompt + max_new_tokens = "
                             << r.prompt_tokens + r.max_new_tokens
                             << " exceeds token_budget = " << cfg.token_budget
                             << " — it could never be admitted");
  }
}

ServingReport simulate_serving(const std::vector<ServingRequest>& requests,
                               const ServingConfig& cfg) {
  // Validated against the single-replica config first, so a bad input
  // reports the ServingConfig field, not the fleet's.
  validate_serving_inputs(requests, cfg);
  ResilientServingConfig fleet;
  fleet.max_batch = cfg.max_batch;
  fleet.token_budget = cfg.token_budget;
  fleet.cost_ladder = {cfg.step_cost};
  return simulate_serving_resilient(requests, fleet).serving;
}

}  // namespace actcomp::sim
