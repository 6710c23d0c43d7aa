// Crash-recovery model and graceful-degradation controller tests: config
// validation, crash-free exactness, determinism, timeline invariants, the
// Young/Daly 15% acceptance bar, and the controller's hysteresis rules.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"
#include "sim/recovery.h"
#include "train/resilience.h"

namespace sm = actcomp::sim;
namespace tr = actcomp::train;
namespace json = actcomp::obs::json;

namespace {

sm::RecoveryConfig crashy_config() {
  sm::RecoveryConfig cfg;
  cfg.step_ms = 1.0;
  cfg.total_steps = 5000;
  cfg.ckpt_interval_steps = 100;
  cfg.ckpt_cost_ms = 5.0;
  cfg.crash.mtbf_ms = 4000.0;
  cfg.crash.num_stages = 4;  // job MTBF 1000 ms
  cfg.crash.detect_ms = 3.0;
  cfg.crash.restart_ms = 20.0;
  cfg.seed = 11;
  return cfg;
}

}  // namespace

TEST(RecoveryConfig, ValidationRejectsBadKnobs) {
  sm::RecoveryConfig cfg = crashy_config();
  cfg.step_ms = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = crashy_config();
  cfg.total_steps = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = crashy_config();
  cfg.ckpt_interval_steps = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = crashy_config();
  cfg.ckpt_cost_ms = -0.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = crashy_config();
  cfg.crash.mtbf_ms = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_NO_THROW(crashy_config().validate());
}

TEST(Recovery, CrashFreeRunIsExact) {
  sm::RecoveryConfig cfg = crashy_config();
  cfg.crash = sm::CrashSpec{};  // disabled
  const sm::RecoveryResult r = sm::simulate_recovery(cfg);

  EXPECT_EQ(r.crashes, 0);
  EXPECT_EQ(r.useful_steps, cfg.total_steps);
  EXPECT_DOUBLE_EQ(r.lost_ms, 0.0);
  EXPECT_DOUBLE_EQ(r.replay_ms, 0.0);
  EXPECT_DOUBLE_EQ(r.downtime_ms, 0.0);
  // Checkpoints after every full interval except the final step.
  const double expected_ckpt =
      cfg.ckpt_cost_ms *
      static_cast<double>((cfg.total_steps - 1) / cfg.ckpt_interval_steps);
  EXPECT_DOUBLE_EQ(r.ckpt_ms, expected_ckpt);
  EXPECT_DOUBLE_EQ(r.wall_ms,
                   cfg.step_ms * static_cast<double>(cfg.total_steps) +
                       expected_ckpt);
  // The analytic model is exact in the crash-free case.
  EXPECT_DOUBLE_EQ(
      r.wall_ms,
      sm::analytic_wall_ms(cfg, static_cast<double>(cfg.ckpt_interval_steps) *
                                    cfg.step_ms));
}

TEST(Recovery, NoCheckpointingMeansReplayFromZero) {
  sm::RecoveryConfig cfg = crashy_config();
  cfg.total_steps = 300;
  cfg.ckpt_interval_steps = 0;  // never checkpoint
  cfg.crash.mtbf_ms = 2000.0;
  cfg.crash.num_stages = 1;
  const sm::RecoveryResult r = sm::simulate_recovery(cfg);
  EXPECT_EQ(r.useful_steps, cfg.total_steps);
  EXPECT_DOUBLE_EQ(r.ckpt_ms, 0.0);
  if (r.crashes > 0) {
    // Every crash discards the full prefix: lost work at least one crash's
    // worth of partial progress, and no checkpoint ever bounds the rollback.
    EXPECT_GT(r.lost_ms, 0.0);
  }
}

TEST(Recovery, DeterministicInConfigAndSeed) {
  const sm::RecoveryResult a = sm::simulate_recovery(crashy_config());
  const sm::RecoveryResult b = sm::simulate_recovery(crashy_config());
  EXPECT_EQ(a.wall_ms, b.wall_ms);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.lost_ms, b.lost_ms);
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (size_t i = 0; i < a.segments.size(); ++i) {
    EXPECT_EQ(a.segments[i].start_ms, b.segments[i].start_ms);
    EXPECT_EQ(a.segments[i].end_ms, b.segments[i].end_ms);
    EXPECT_EQ(a.segments[i].kind, b.segments[i].kind);
  }
  ASSERT_EQ(a.crash_times_ms.size(), b.crash_times_ms.size());

  sm::RecoveryConfig other = crashy_config();
  other.seed += 1;
  const sm::RecoveryResult c = sm::simulate_recovery(other);
  EXPECT_NE(a.wall_ms, c.wall_ms);  // different realization
}

TEST(Recovery, TimelineIsContiguousAndAccountsForTheWall) {
  const sm::RecoveryResult r = sm::simulate_recovery(crashy_config());
  ASSERT_FALSE(r.segments.empty());
  EXPECT_GT(r.crashes, 0);  // the scenario is calibrated to crash
  EXPECT_DOUBLE_EQ(r.segments.front().start_ms, 0.0);
  EXPECT_DOUBLE_EQ(r.segments.back().end_ms, r.wall_ms);
  double covered = 0.0;
  for (size_t i = 0; i < r.segments.size(); ++i) {
    const auto& s = r.segments[i];
    EXPECT_LE(s.start_ms, s.end_ms);
    if (i > 0) {
      EXPECT_DOUBLE_EQ(s.start_ms, r.segments[i - 1].end_ms);
    }
    covered += s.end_ms - s.start_ms;
  }
  EXPECT_NEAR(covered, r.wall_ms, 1e-6 * r.wall_ms);

  // Crashed run is never faster than the clean one.
  sm::RecoveryConfig clean = crashy_config();
  clean.crash = sm::CrashSpec{};
  EXPECT_GE(r.wall_ms, sm::simulate_recovery(clean).wall_ms);
  EXPECT_EQ(r.useful_steps, crashy_config().total_steps);
  EXPECT_EQ(static_cast<int>(r.crash_times_ms.size()), r.crashes);
}

TEST(Recovery, OverheadDecomposesTheWall) {
  const sm::RecoveryConfig cfg = crashy_config();
  const sm::RecoveryResult r = sm::simulate_recovery(cfg);
  // wall = useful work + checkpoint writes + lost (discarded) work
  //      + replay + downtime. Replayed time IS the re-execution of lost
  //      steps, so lost_ms (charged at discard) and replay_ms (charged at
  //      re-execution) both appear; a torn final span may be lost without
  //      ever being replayed, so replay <= lost.
  const double useful = cfg.step_ms * static_cast<double>(r.useful_steps);
  EXPECT_NEAR(r.wall_ms, useful + r.ckpt_ms + r.lost_ms + r.downtime_ms,
              1e-6 * r.wall_ms);
  EXPECT_LE(r.replay_ms, r.lost_ms + 1e-9);
  EXPECT_GT(r.goodput_steps_per_sec(), 0.0);
}

TEST(Recovery, YoungDalyFormula) {
  EXPECT_DOUBLE_EQ(sm::young_daly_interval_ms(50.0, 1e6),
                   std::sqrt(2.0 * 50.0 * 1e6));
  EXPECT_THROW(sm::young_daly_interval_ms(0.0, 1e6), std::invalid_argument);
  EXPECT_THROW(sm::young_daly_interval_ms(50.0, 0.0), std::invalid_argument);
}

TEST(Recovery, SweepOptimumWithinFifteenPercentOfYoungDaly) {
  // The PR's acceptance bar, on a cheap configuration: the Monte-Carlo
  // optimum of the interval sweep lands within 15% of sqrt(2 C M) across a
  // crashy and a healthier MTBF.
  for (double stage_mtbf_ms : {12000.0, 48000.0}) {
    sm::RecoveryConfig cfg;
    cfg.step_ms = 1.0;
    cfg.total_steps = 20000;
    cfg.ckpt_cost_ms = 6.0;
    cfg.crash.mtbf_ms = stage_mtbf_ms;
    cfg.crash.num_stages = 4;
    cfg.crash.detect_ms = 2.0;
    cfg.crash.restart_ms = 10.0;
    cfg.ckpt_interval_steps = 100;
    cfg.seed = 1;
    const auto sweep = sm::sweep_checkpoint_interval(cfg, /*trials=*/60);
    EXPECT_NEAR(sweep.young_daly_ms,
                std::sqrt(2.0 * cfg.ckpt_cost_ms *
                          cfg.crash.effective_mtbf_ms()),
                1e-9);
    EXPECT_LT(std::fabs(sweep.deviation()), 0.15)
        << "stage MTBF " << stage_mtbf_ms << ": simulated "
        << sweep.best_interval_ms << " ms vs Young/Daly "
        << sweep.young_daly_ms << " ms";
  }
}

TEST(Recovery, TraceIsValidJsonWithCrashInstants) {
  const sm::RecoveryResult r = sm::simulate_recovery(crashy_config());
  std::ostringstream os;
  sm::write_recovery_trace(os, r);
  std::string err;
  const json::Value v = json::Value::parse(os.str(), &err);
  ASSERT_TRUE(err.empty()) << err;
  const json::Value* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Slices (ph:"X") for every segment, one instant (ph:"i") per crash, plus
  // two thread_name metadata rows.
  int slices = 0, instants = 0;
  for (size_t i = 0; i < events->size(); ++i) {
    const std::string ph = events->at(i).find("ph")->as_string();
    if (ph == "X") ++slices;
    if (ph == "i") ++instants;
  }
  EXPECT_EQ(slices, static_cast<int>(r.segments.size()));
  EXPECT_EQ(instants, r.crashes);
}

TEST(Resilience, ConfigValidation) {
  tr::ResilienceConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  cfg.escalate_below = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.recover_above = cfg.escalate_below;  // no hysteresis band
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.hold_steps = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.ewma_alpha = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Resilience, LevelMapping) {
  EXPECT_EQ(tr::degrade_setting(tr::DegradeLevel::kNone),
            actcomp::compress::Setting::kBaseline);
  EXPECT_EQ(tr::degrade_setting(tr::DegradeLevel::kQuant8),
            actcomp::compress::Setting::kQ3);
  EXPECT_EQ(tr::degrade_setting(tr::DegradeLevel::kTopK),
            actcomp::compress::Setting::kT1);
}

TEST(Resilience, HealthyLinkNeverEscalates) {
  tr::ResilienceConfig cfg;
  cfg.ewma_alpha = 1.0;
  tr::DegradationController ctl(cfg, 2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ctl.observe(0, 1.0), tr::DegradeLevel::kNone);
    EXPECT_EQ(ctl.observe(1, 0.95), tr::DegradeLevel::kNone);
  }
  EXPECT_EQ(ctl.escalations(), 0);
  EXPECT_EQ(ctl.max_level(), tr::DegradeLevel::kNone);
}

TEST(Resilience, EscalatesAfterHoldWindowThenLadder) {
  tr::ResilienceConfig cfg;
  cfg.hold_steps = 3;
  cfg.ewma_alpha = 1.0;  // raw samples, so the hold window is exact
  tr::DegradationController ctl(cfg, 1);
  EXPECT_EQ(ctl.observe(0, 0.2), tr::DegradeLevel::kNone);
  EXPECT_EQ(ctl.observe(0, 0.2), tr::DegradeLevel::kNone);
  EXPECT_EQ(ctl.observe(0, 0.2), tr::DegradeLevel::kQuant8);  // 3rd low sample
  // The next escalation needs a fresh hold window.
  EXPECT_EQ(ctl.observe(0, 0.2), tr::DegradeLevel::kQuant8);
  EXPECT_EQ(ctl.observe(0, 0.2), tr::DegradeLevel::kQuant8);
  EXPECT_EQ(ctl.observe(0, 0.2), tr::DegradeLevel::kTopK);
  // The ladder tops out at TopK.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(ctl.observe(0, 0.2), tr::DegradeLevel::kTopK);
  EXPECT_EQ(ctl.escalations(), 2);
  EXPECT_EQ(ctl.setting(0), actcomp::compress::Setting::kT1);
}

TEST(Resilience, RecoversOnlyAfterSustainedHealth) {
  tr::ResilienceConfig cfg;
  cfg.hold_steps = 3;
  cfg.ewma_alpha = 1.0;
  tr::DegradationController ctl(cfg, 1);
  for (int i = 0; i < 3; ++i) ctl.observe(0, 0.2);
  ASSERT_EQ(ctl.level(0), tr::DegradeLevel::kQuant8);
  // Two healthy samples then a dip inside the band: run resets, no recovery.
  ctl.observe(0, 0.95);
  ctl.observe(0, 0.95);
  EXPECT_EQ(ctl.observe(0, 0.8), tr::DegradeLevel::kQuant8);
  // Three consecutive healthy samples de-escalate.
  ctl.observe(0, 0.95);
  ctl.observe(0, 0.95);
  EXPECT_EQ(ctl.observe(0, 0.95), tr::DegradeLevel::kNone);
  EXPECT_EQ(ctl.deescalations(), 1);
}

TEST(Resilience, FlappingSignalDoesNotFlapTheController) {
  // Alternate just below / just above the escalate threshold: the EWMA plus
  // run-reset hysteresis must hold the controller at a fixed level instead
  // of toggling with the signal.
  tr::ResilienceConfig cfg;
  cfg.hold_steps = 3;
  cfg.ewma_alpha = 0.5;
  tr::DegradationController ctl(cfg, 1);
  int transitions = 0;
  tr::DegradeLevel prev = ctl.level(0);
  for (int i = 0; i < 200; ++i) {
    const tr::DegradeLevel now = ctl.observe(0, i % 2 == 0 ? 0.55 : 0.65);
    if (now != prev) ++transitions;
    prev = now;
  }
  // The smoothed signal settles near 0.6; whatever level it first reaches,
  // it must stop moving (at most the initial escalations, never a flap).
  EXPECT_LE(transitions, 2);
  EXPECT_EQ(ctl.deescalations(), 0);
}

TEST(Resilience, BoundariesAreIndependent) {
  tr::ResilienceConfig cfg;
  cfg.ewma_alpha = 1.0;
  tr::DegradationController ctl(cfg, 3);
  for (int i = 0; i < 5; ++i) {
    ctl.observe(0, 1.0);
    ctl.observe(1, 0.2);  // only boundary 1 browns out
    ctl.observe(2, 1.0);
  }
  EXPECT_EQ(ctl.level(0), tr::DegradeLevel::kNone);
  EXPECT_EQ(ctl.level(1), tr::DegradeLevel::kQuant8);
  EXPECT_EQ(ctl.level(2), tr::DegradeLevel::kNone);
  EXPECT_EQ(ctl.max_level(), tr::DegradeLevel::kQuant8);
  EXPECT_THROW(ctl.observe(3, 1.0), std::invalid_argument);
  EXPECT_THROW(ctl.observe(0, -0.1), std::invalid_argument);
}
