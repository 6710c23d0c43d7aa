#include "train/resilience.h"

#include <algorithm>
#include <cmath>

#include "obs/registry.h"
#include "tensor/check.h"

namespace actcomp::train {

const char* degrade_level_label(DegradeLevel level) {
  switch (level) {
    case DegradeLevel::kNone: return "none";
    case DegradeLevel::kQuant8: return "int8";
    case DegradeLevel::kTopK: return "topk";
  }
  return "?";
}

compress::Setting degrade_setting(DegradeLevel level) {
  switch (level) {
    case DegradeLevel::kNone: return compress::Setting::kBaseline;
    case DegradeLevel::kQuant8: return compress::Setting::kQ3;
    case DegradeLevel::kTopK: return compress::Setting::kT1;
  }
  return compress::Setting::kBaseline;
}

void ResilienceConfig::validate() const {
  ACTCOMP_CHECK(std::isfinite(escalate_below) && escalate_below > 0.0 &&
                    escalate_below < 1.0,
                "ResilienceConfig: escalate_below = "
                    << escalate_below << " — must be in (0, 1)");
  ACTCOMP_CHECK(std::isfinite(recover_above) &&
                    recover_above > escalate_below && recover_above <= 1.0,
                "ResilienceConfig: recover_above = "
                    << recover_above
                    << " — must be in (escalate_below, 1] to leave a "
                       "hysteresis band");
  ACTCOMP_CHECK(hold_steps >= 1, "ResilienceConfig: hold_steps = "
                                     << hold_steps << " — must be >= 1");
  ACTCOMP_CHECK(std::isfinite(ewma_alpha) && ewma_alpha > 0.0 &&
                    ewma_alpha <= 1.0,
                "ResilienceConfig: ewma_alpha = " << ewma_alpha
                                                  << " — must be in (0, 1]");
}

DegradationController::DegradationController(const ResilienceConfig& cfg,
                                             int num_boundaries)
    : cfg_(cfg) {
  cfg_.validate();
  ACTCOMP_CHECK(num_boundaries >= 1,
                "DegradationController: num_boundaries must be >= 1");
  const int rungs = static_cast<int>(DegradeLevel::kTopK) + 1;
  state_.assign(static_cast<size_t>(num_boundaries),
                {sim::HysteresisLadder(rungs, cfg_.hold_steps)});
}

DegradeLevel DegradationController::observe(int boundary,
                                            double bandwidth_fraction) {
  ACTCOMP_CHECK(boundary >= 0 && boundary < num_boundaries(),
                "DegradationController: boundary out of range");
  ACTCOMP_CHECK(std::isfinite(bandwidth_fraction) && bandwidth_fraction >= 0.0,
                "DegradationController: bandwidth_fraction must be finite and "
                ">= 0");
  BoundaryState& s = state_[static_cast<size_t>(boundary)];
  if (!s.seeded) {
    s.ewma = bandwidth_fraction;
    s.seeded = true;
  } else {
    s.ewma = cfg_.ewma_alpha * bandwidth_fraction +
             (1.0 - cfg_.ewma_alpha) * s.ewma;
  }

  using Reading = sim::HysteresisLadder::Reading;
  const Reading r = s.ewma < cfg_.escalate_below  ? Reading::kBreach
                    : s.ewma > cfg_.recover_above ? Reading::kHealthy
                                                  : Reading::kBand;
  const int before = s.ladder.level();
  const int after = s.ladder.observe(r);
  if (after > before) {
    ++escalations_;
    obs::Registry::instance().counter("train.resilience.escalations").add();
  } else if (after < before) {
    ++deescalations_;
    obs::Registry::instance().counter("train.resilience.deescalations").add();
  }
  return static_cast<DegradeLevel>(after);
}

DegradeLevel DegradationController::level(int boundary) const {
  ACTCOMP_CHECK(boundary >= 0 && boundary < num_boundaries(),
                "DegradationController: boundary out of range");
  return static_cast<DegradeLevel>(
      state_[static_cast<size_t>(boundary)].ladder.level());
}

DegradeLevel DegradationController::max_level() const {
  int worst = 0;
  for (const BoundaryState& s : state_) {
    worst = std::max(worst, s.ladder.level());
  }
  return static_cast<DegradeLevel>(worst);
}

double DegradationController::smoothed(int boundary) const {
  ACTCOMP_CHECK(boundary >= 0 && boundary < num_boundaries(),
                "DegradationController: boundary out of range");
  return state_[static_cast<size_t>(boundary)].ewma;
}

}  // namespace actcomp::train
