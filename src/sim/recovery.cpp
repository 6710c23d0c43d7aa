#include "sim/recovery.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <random>
#include <stdexcept>

#include "obs/registry.h"
#include "sim/faults.h"
#include "tensor/check.h"

namespace actcomp::sim {

void RecoveryConfig::validate() const {
  ACTCOMP_CHECK(std::isfinite(step_ms) && step_ms > 0.0,
                "RecoveryConfig: step_ms = "
                    << step_ms << " — must be finite and positive");
  ACTCOMP_CHECK(total_steps >= 1, "RecoveryConfig: total_steps = "
                                      << total_steps << " — must be >= 1");
  ACTCOMP_CHECK(ckpt_interval_steps >= 0,
                "RecoveryConfig: ckpt_interval_steps = " << ckpt_interval_steps
                                                         << " — must be >= 0");
  ACTCOMP_CHECK(std::isfinite(ckpt_cost_ms) && ckpt_cost_ms >= 0.0,
                "RecoveryConfig: ckpt_cost_ms = "
                    << ckpt_cost_ms << " — must be finite and non-negative");
  crash.validate();
}

const char* recovery_segment_label(RecoverySegmentKind k) {
  switch (k) {
    case RecoverySegmentKind::kWork: return "work";
    case RecoverySegmentKind::kReplay: return "replay";
    case RecoverySegmentKind::kCheckpoint: return "checkpoint";
    case RecoverySegmentKind::kDetect: return "detect";
    case RecoverySegmentKind::kRestart: return "restart";
  }
  return "?";
}

RecoveryResult simulate_recovery(const RecoveryConfig& cfg) {
  cfg.validate();
  std::mt19937_64 rng(cfg.seed);
  const bool crashes_on = cfg.crash.enabled();
  const double mtbf = crashes_on ? cfg.crash.effective_mtbf_ms() : 0.0;
  const int64_t k = cfg.ckpt_interval_steps;

  RecoveryResult r;
  r.useful_steps = cfg.total_steps;

  double t = 0.0;
  int64_t done = 0;        // steps completed since the last rollback
  int64_t safe = 0;        // last checkpointed step
  int64_t high_water = 0;  // furthest step ever completed (replay boundary)
  double next_crash = crashes_on
                          ? exponential_raw(rng, mtbf)
                          : std::numeric_limits<double>::infinity();

  auto emit = [&](RecoverySegmentKind kind, double start, double end,
                  int64_t s_begin, int64_t s_end) {
    if (end > start) r.segments.push_back({kind, start, end, s_begin, s_end});
  };
  // Splits a work/replay span at the replay -> new-work boundary so the
  // timeline shows exactly which spans are re-execution.
  auto emit_run = [&](double start, int64_t s_begin, int64_t s_end) {
    const int64_t replay_end = std::min(s_end, std::max(s_begin, high_water));
    const double mid =
        start + static_cast<double>(replay_end - s_begin) * cfg.step_ms;
    emit(RecoverySegmentKind::kReplay, start, mid, s_begin, replay_end);
    emit(RecoverySegmentKind::kWork, mid,
         mid + static_cast<double>(s_end - replay_end) * cfg.step_ms,
         replay_end, s_end);
    r.replay_ms += mid - start;
  };

  while (done < cfg.total_steps) {
    // Advance to the next milestone: the next checkpoint boundary or the end.
    const int64_t target =
        k > 0 ? std::min(cfg.total_steps, (done / k + 1) * k) : cfg.total_steps;
    const double block_ms = static_cast<double>(target - done) * cfg.step_ms;

    if (next_crash < t + block_ms) {
      // Crash mid-block: the partial step plus everything completed since
      // the last checkpoint is discarded.
      const int64_t whole = static_cast<int64_t>((next_crash - t) / cfg.step_ms);
      const int64_t reached = std::min(target, done + whole);
      emit_run(t, done, reached);
      const double partial_start =
          t + static_cast<double>(reached - done) * cfg.step_ms;
      if (next_crash > partial_start) {
        // The torn step: the job is up and executing, but the crash will
        // discard it before it completes.
        const bool replaying = reached < high_water;
        emit(replaying ? RecoverySegmentKind::kReplay
                       : RecoverySegmentKind::kWork,
             partial_start, next_crash, reached, reached);
        if (replaying) r.replay_ms += next_crash - partial_start;
      }
      r.lost_ms += (next_crash - t) +
                   static_cast<double>(done - safe) * cfg.step_ms;
      t = next_crash;
      r.crash_times_ms.push_back(t);
      ++r.crashes;
      // A thrashing configuration (MTBF far below the step time) never
      // finishes; fail loudly instead of spinning forever.
      if (r.crashes > 1000000) {
        throw std::runtime_error(
            "simulate_recovery: job cannot make progress (over 1e6 crashes; "
            "MTBF is below the per-step cost — shrink step_ms or raise "
            "crash.mtbf_ms)");
      }
      high_water = std::max(high_water, reached);
      emit(RecoverySegmentKind::kDetect, t, t + cfg.crash.detect_ms, 0, 0);
      t += cfg.crash.detect_ms;
      emit(RecoverySegmentKind::kRestart, t, t + cfg.crash.restart_ms, 0, 0);
      t += cfg.crash.restart_ms;
      r.downtime_ms += cfg.crash.detect_ms + cfg.crash.restart_ms;
      done = safe;  // rollback-and-replay from the last checkpoint
      next_crash = t + exponential_raw(rng, mtbf);
      continue;
    }

    emit_run(t, done, target);
    t += block_ms;
    high_water = std::max(high_water, target);
    done = target;
    if (done >= cfg.total_steps) break;

    // Checkpoint write at the interval boundary; a crash mid-write tears
    // the file (safe stays put) and the job still rolls back.
    if (next_crash < t + cfg.ckpt_cost_ms) {
      emit(RecoverySegmentKind::kCheckpoint, t, next_crash, 0, 0);
      r.ckpt_ms += next_crash - t;
      r.lost_ms += static_cast<double>(done - safe) * cfg.step_ms;
      t = next_crash;
      r.crash_times_ms.push_back(t);
      ++r.crashes;
      emit(RecoverySegmentKind::kDetect, t, t + cfg.crash.detect_ms, 0, 0);
      t += cfg.crash.detect_ms;
      emit(RecoverySegmentKind::kRestart, t, t + cfg.crash.restart_ms, 0, 0);
      t += cfg.crash.restart_ms;
      r.downtime_ms += cfg.crash.detect_ms + cfg.crash.restart_ms;
      done = safe;
      next_crash = t + exponential_raw(rng, mtbf);
      continue;
    }
    emit(RecoverySegmentKind::kCheckpoint, t, t + cfg.ckpt_cost_ms, 0, 0);
    t += cfg.ckpt_cost_ms;
    r.ckpt_ms += cfg.ckpt_cost_ms;
    safe = done;
  }

  r.wall_ms = t;
  auto& reg = obs::Registry::instance();
  reg.counter("sim.recovery.runs").add();
  reg.counter("sim.recovery.crashes").add(r.crashes);
  reg.gauge("sim.recovery.goodput_steps_per_s").set(r.goodput_steps_per_sec());
  return r;
}

double young_daly_interval_ms(double ckpt_cost_ms, double effective_mtbf_ms) {
  ACTCOMP_CHECK(ckpt_cost_ms > 0.0 && effective_mtbf_ms > 0.0,
                "young_daly_interval_ms needs positive checkpoint cost and "
                "MTBF, got " << ckpt_cost_ms << " / " << effective_mtbf_ms);
  return std::sqrt(2.0 * ckpt_cost_ms * effective_mtbf_ms);
}

double analytic_wall_ms(const RecoveryConfig& cfg, double interval_ms) {
  cfg.validate();
  ACTCOMP_CHECK(interval_ms > 0.0,
                "interval_ms = " << interval_ms << " — must be positive");
  const double work = static_cast<double>(cfg.total_steps) * cfg.step_ms;
  const double ckpt_overhead = cfg.ckpt_cost_ms / interval_ms;
  if (!cfg.crash.enabled()) {
    // Exact: one checkpoint per full interval, none after the final step.
    const int64_t k =
        std::max<int64_t>(1, static_cast<int64_t>(interval_ms / cfg.step_ms));
    return work + cfg.ckpt_cost_ms *
                      static_cast<double>((cfg.total_steps - 1) / k);
  }
  const double mtbf = cfg.crash.effective_mtbf_ms();
  const double rework = interval_ms / 2.0 + cfg.ckpt_cost_ms / 2.0 +
                        cfg.crash.detect_ms + cfg.crash.restart_ms;
  return work * (1.0 + ckpt_overhead) * (1.0 + rework / mtbf);
}

IntervalSweepResult sweep_checkpoint_interval(const RecoveryConfig& base,
                                              int trials, double span,
                                              int grid_points) {
  base.validate();
  ACTCOMP_CHECK(trials >= 1, "RecoveryConfig: sweep needs trials >= 1");
  ACTCOMP_CHECK(span > 1.0 && grid_points >= 2,
                "RecoveryConfig: sweep needs span > 1 and >= 2 grid points");
  ACTCOMP_CHECK(base.crash.enabled() && base.ckpt_cost_ms > 0.0,
                "RecoveryConfig: sweep needs crashes enabled and a positive "
                "checkpoint cost");

  IntervalSweepResult out;
  out.young_daly_ms =
      young_daly_interval_ms(base.ckpt_cost_ms, base.crash.effective_mtbf_ms());

  // Geometric grid over [tau*/span, tau* x span], deduplicated after
  // rounding to whole steps.
  std::vector<int64_t> grid;
  const double lo = out.young_daly_ms / span;
  const double ratio = std::pow(span * span, 1.0 / (grid_points - 1));
  for (int i = 0; i < grid_points; ++i) {
    const double tau = lo * std::pow(ratio, i);
    const int64_t steps = std::max<int64_t>(
        1, static_cast<int64_t>(std::llround(tau / base.step_ms)));
    if (grid.empty() || grid.back() != steps) grid.push_back(steps);
  }

  double best_wall = std::numeric_limits<double>::infinity();
  size_t argmin = 0;
  for (int64_t steps : grid) {
    RecoveryConfig cfg = base;
    cfg.ckpt_interval_steps = steps;
    IntervalSweepPoint pt;
    pt.interval_steps = steps;
    pt.interval_ms = static_cast<double>(steps) * base.step_ms;
    // Common random numbers: every interval replays the same seed set, so
    // interval-to-interval comparisons share their crash realizations and
    // the argmin is stable at moderate trial counts.
    for (int tr = 0; tr < trials; ++tr) {
      cfg.seed = base.seed + static_cast<uint64_t>(tr);
      const RecoveryResult r = simulate_recovery(cfg);
      pt.mean_wall_ms += r.wall_ms;
      pt.mean_goodput += r.goodput_steps_per_sec();
      pt.mean_crashes += r.crashes;
    }
    pt.mean_wall_ms /= trials;
    pt.mean_goodput /= trials;
    pt.mean_crashes /= trials;
    pt.analytic_wall = analytic_wall_ms(cfg, pt.interval_ms);
    if (pt.mean_wall_ms < best_wall) {
      best_wall = pt.mean_wall_ms;
      argmin = out.points.size();
    }
    out.points.push_back(pt);
  }

  // The wall-clock curve is nearly flat around tau* (the overhead is
  // C/tau + tau/2M, with second-order curvature at the minimum), so the raw
  // per-point argmin wanders with residual Monte-Carlo noise. Fit a
  // quadratic in log(tau) to the window around the argmin and report the
  // fitted vertex — the standard treatment for locating the minimum of a
  // flat noisy curve. Falls back to the raw argmin when the fit degenerates
  // (non-positive curvature or a vertex outside the window).
  out.best_interval_ms = out.points[argmin].interval_ms;
  out.best_interval_steps = out.points[argmin].interval_steps;
  const size_t w_lo = argmin > 4 ? argmin - 4 : 0;
  const size_t w_hi = std::min(out.points.size() - 1, argmin + 4);
  if (w_hi - w_lo + 1 >= 5) {
    // Least squares w = a + b x + c x^2 over x = log(tau), centered for
    // conditioning; solved with the 3x3 normal equations.
    const double x0 = std::log(out.points[argmin].interval_ms);
    double s0 = 0, s1 = 0, s2 = 0, s3 = 0, s4 = 0, t0 = 0, t1 = 0, t2 = 0;
    for (size_t i = w_lo; i <= w_hi; ++i) {
      const double x = std::log(out.points[i].interval_ms) - x0;
      const double y = out.points[i].mean_wall_ms;
      const double x2 = x * x;
      s0 += 1; s1 += x; s2 += x2; s3 += x2 * x; s4 += x2 * x2;
      t0 += y; t1 += x * y; t2 += x2 * y;
    }
    const double det = s0 * (s2 * s4 - s3 * s3) - s1 * (s1 * s4 - s2 * s3) +
                       s2 * (s1 * s3 - s2 * s2);
    if (std::fabs(det) > 1e-12) {
      const double b = (s0 * (t1 * s4 - s3 * t2) - t0 * (s1 * s4 - s2 * s3) +
                        s2 * (s1 * t2 - t1 * s2)) / det;
      const double c = (s0 * (s2 * t2 - t1 * s3) - s1 * (s1 * t2 - t1 * s2) +
                        t0 * (s1 * s3 - s2 * s2)) / det;
      const double x_lo = std::log(out.points[w_lo].interval_ms) - x0;
      const double x_hi = std::log(out.points[w_hi].interval_ms) - x0;
      if (c > 0.0) {
        const double xv = -b / (2.0 * c);
        if (xv >= x_lo && xv <= x_hi) {
          out.best_interval_ms = std::exp(xv + x0);
          out.best_interval_steps = std::max<int64_t>(
              1, static_cast<int64_t>(
                     std::llround(out.best_interval_ms / base.step_ms)));
        }
      }
    }
  }
  return out;
}

void write_recovery_trace(std::ostream& os, const RecoveryResult& r) {
  os << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ',';
    first = false;
  };
  sep();
  os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"recovery timeline\"}}";
  sep();
  os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,"
        "\"args\":{\"name\":\"crashes\"}}";
  for (const RecoverySegment& s : r.segments) {
    sep();
    os << "{\"name\":\"" << recovery_segment_label(s.kind);
    if (s.kind == RecoverySegmentKind::kWork ||
        s.kind == RecoverySegmentKind::kReplay) {
      os << ' ' << s.step_begin << "-" << s.step_end;
    }
    os << "\",\"cat\":\"" << recovery_segment_label(s.kind)
       << "\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":" << s.start_ms * 1e3
       << ",\"dur\":" << (s.end_ms - s.start_ms) * 1e3 << '}';
  }
  for (size_t i = 0; i < r.crash_times_ms.size(); ++i) {
    sep();
    os << "{\"name\":\"crash " << i + 1
       << "\",\"cat\":\"crash\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,"
          "\"tid\":1,\"ts\":"
       << r.crash_times_ms[i] * 1e3 << '}';
  }
  os << "]}\n";
}

}  // namespace actcomp::sim
