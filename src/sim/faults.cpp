#include "sim/faults.h"

#include <cmath>
#include <limits>

#include "tensor/check.h"

namespace actcomp::sim {

bool FaultProfile::enabled() const {
  return compute_jitter > 0.0 ||
         (straggler_stage >= 0 && straggler_slowdown > 1.0) || link.faulty();
}

void FaultProfile::validate() const {
  auto nonneg = [](double v, const char* name) {
    ACTCOMP_CHECK(std::isfinite(v) && v >= 0.0,
                  "FaultProfile: " << name << " = " << v
                                   << " — must be finite and non-negative");
  };
  nonneg(compute_jitter, "compute_jitter");
  ACTCOMP_CHECK(std::isfinite(straggler_slowdown) && straggler_slowdown >= 1.0,
                "FaultProfile: straggler_slowdown = " << straggler_slowdown
                                                      << " — must be >= 1");
  ACTCOMP_CHECK(straggler_stage >= -1, "FaultProfile: straggler_stage = "
                                           << straggler_stage
                                           << " — must be >= -1");
  ACTCOMP_CHECK(faulty_boundary >= -1, "FaultProfile: faulty_boundary = "
                                           << faulty_boundary
                                           << " — must be >= -1");
  ACTCOMP_CHECK(std::isfinite(link.degrade_factor) &&
                    link.degrade_factor >= 1.0,
                "FaultProfile: link.degrade_factor = "
                    << link.degrade_factor
                    << " — must be >= 1 (faults only lengthen transfers)");
  ACTCOMP_CHECK(std::isfinite(link.outage_rate) && link.outage_rate >= 0.0 &&
                    link.outage_rate < 1.0,
                "FaultProfile: link.outage_rate = " << link.outage_rate
                                                    << " — must be in [0, 1)");
  nonneg(link.timeout_ms, "link.timeout_ms");
  nonneg(link.backoff_ms, "link.backoff_ms");
  ACTCOMP_CHECK(link.outage_rate <= 0.0 ||
                    (link.max_retries >= 1 && link.max_retries <= 16),
                "FaultProfile: link.max_retries = "
                    << link.max_retries
                    << " — must be in [1, 16] when outage_rate > 0");
  crash.validate();
}

FaultProfile FaultProfile::none() { return {}; }

FaultProfile FaultProfile::straggler(int stage, double slowdown,
                                     uint64_t seed) {
  FaultProfile p;
  p.straggler_stage = stage;
  p.straggler_slowdown = slowdown;
  p.seed = seed;
  return p;
}

FaultProfile FaultProfile::degraded_link(double factor, uint64_t seed) {
  FaultProfile p;
  p.link.degrade_factor = factor;
  p.seed = seed;
  return p;
}

FaultProfile FaultProfile::flaky_link(double outage_rate, double timeout_ms,
                                      double backoff_ms, uint64_t seed) {
  FaultProfile p;
  p.link.outage_rate = outage_rate;
  p.link.timeout_ms = timeout_ms;
  p.link.backoff_ms = backoff_ms;
  p.seed = seed;
  return p;
}

FaultProfile FaultProfile::chaos(uint64_t seed) {
  FaultProfile p;
  p.compute_jitter = 0.10;
  p.straggler_stage = 0;
  p.straggler_slowdown = 1.5;
  p.link.degrade_factor = 2.0;
  p.link.outage_rate = 0.05;
  p.link.timeout_ms = 1.0;
  p.link.backoff_ms = 0.5;
  p.seed = seed;
  return p;
}

FaultInjector::FaultInjector(const FaultProfile& profile)
    : profile_(profile), rng_(profile.seed) {
  profile_.validate();
  enabled_ = profile_.enabled();
}

double FaultInjector::compute_multiplier(int stage) {
  if (!enabled_) return 1.0;
  double mul = 1.0;
  if (profile_.compute_jitter > 0.0) {
    mul += profile_.compute_jitter * uniform_raw(rng_);
  }
  if (stage == profile_.straggler_stage) mul *= profile_.straggler_slowdown;
  return mul;
}

bool FaultInjector::link_faulty(int boundary) const {
  return profile_.faulty_boundary == -1 || profile_.faulty_boundary == boundary;
}

double FaultInjector::transfer_multiplier(int boundary) const {
  if (!enabled_ || !link_faulty(boundary)) return 1.0;
  return profile_.link.degrade_factor;
}

int FaultInjector::draw_outages(int boundary) {
  if (!enabled_ || profile_.link.outage_rate <= 0.0 || !link_faulty(boundary)) {
    return 0;
  }
  int fails = 0;
  while (fails < profile_.link.max_retries &&
         uniform_raw(rng_) < profile_.link.outage_rate) {
    ++fails;
  }
  return fails;
}

double FaultInjector::backoff_ms(int attempt) const {
  return profile_.link.backoff_ms *
         static_cast<double>(int64_t{1} << (attempt - 1));
}

bool ReplicaFaultSpec::enabled() const {
  return mtbf_ms > 0.0 || (slow_mtbf_ms > 0.0 && slow_factor > 1.0);
}

void ReplicaFaultSpec::validate() const {
  auto nonneg = [](double v, const char* name) {
    ACTCOMP_CHECK(std::isfinite(v) && v >= 0.0,
                  "ReplicaFaultSpec: " << name << " = " << v
                                       << " — must be finite and non-negative");
  };
  nonneg(mtbf_ms, "mtbf_ms");
  nonneg(repair_ms, "repair_ms");
  nonneg(slow_mtbf_ms, "slow_mtbf_ms");
  nonneg(slow_duration_ms, "slow_duration_ms");
  ACTCOMP_CHECK(std::isfinite(slow_factor) && slow_factor >= 1.0,
                "ReplicaFaultSpec: slow_factor = "
                    << slow_factor
                    << " — must be >= 1 (faults only lengthen steps)");
  ACTCOMP_CHECK(slow_mtbf_ms <= 0.0 || slow_factor <= 1.0 ||
                    slow_duration_ms > 0.0,
                "ReplicaFaultSpec: slow_duration_ms = "
                    << slow_duration_ms
                    << " — must be > 0 when brown-outs are enabled");
}

ReplicaFaultProcess::ReplicaFaultProcess(const ReplicaFaultSpec& spec)
    : spec_(spec),
      crash_rng_(spec.seed),
      // Splitmix64's odd constant decorrelates the two streams so enabling
      // crashes never re-times the brown-out windows (and vice versa).
      slow_rng_(spec.seed ^ 0x9E3779B97F4A7C15ULL) {
  spec_.validate();
}

double ReplicaFaultProcess::draw_crash_after(double from_ms) {
  if (spec_.mtbf_ms <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return from_ms + exponential_raw(crash_rng_, spec_.mtbf_ms);
}

double ReplicaFaultProcess::slow_multiplier_at(double start_ms) {
  if (spec_.slow_mtbf_ms <= 0.0 || spec_.slow_factor <= 1.0) return 1.0;
  if (!slow_seeded_) {
    slow_seeded_ = true;
    slow_start_ms_ = exponential_raw(slow_rng_, spec_.slow_mtbf_ms);
    slow_end_ms_ = slow_start_ms_ + spec_.slow_duration_ms;
  }
  // Advance past windows that ended before this step starts. Healthy gaps
  // are exponential, windows a fixed length, so the sequence is a renewal
  // process materialized lazily in step-start order.
  while (start_ms >= slow_end_ms_) {
    slow_start_ms_ =
        slow_end_ms_ + exponential_raw(slow_rng_, spec_.slow_mtbf_ms);
    slow_end_ms_ = slow_start_ms_ + spec_.slow_duration_ms;
  }
  return start_ms >= slow_start_ms_ ? spec_.slow_factor : 1.0;
}

}  // namespace actcomp::sim
