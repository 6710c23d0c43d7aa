// Property tests for the request-level serving simulator (sim/serving.h)
// and its bridge to the calibrated TP/PP cost model
// (parallel::make_serving_cost):
//
//   - seeded determinism: same trace + config => byte-identical report
//   - exact rate scaling: one seed draws ONE unit-exponential sequence, so
//     doubling the rate exactly halves every arrival time
//   - Little's law: the event-sweep mean concurrency equals arrival rate x
//     mean end-to-end latency (two independent measurements of the same
//     bookkeeping)
//   - work conservation: the replica's steps are disjoint, ordered, and
//     fit inside the makespan
//   - tail monotonicity: a higher arrival rate (same seed) never lowers p99
//   - graceful degenerate inputs: empty trace, single request, zero-token
//     generations — plus precise validation errors for impossible inputs
//   - the engine cross-check: a sim::Engine graph rebuilt from the report
//     realizes every step at exactly the reported start and end
//   - arrival tie order: an arrival at a step's end joins the next prefill,
//     and same-instant arrivals share one
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/compression_plan.h"
#include "parallel/mp_simulator.h"
#include "sim/engine.h"
#include "sim/serving.h"

namespace {

using namespace actcomp;

// A deterministic, hardware-free cost function: prefill pays per prompt
// token, decode pays a fixed latency plus a little per context token.
double toy_cost(const sim::StepShape& s) {
  return s.prefill ? 2.0 + 0.05 * static_cast<double>(s.new_tokens)
                   : 1.0 + 0.001 * static_cast<double>(s.context_tokens);
}

sim::ServingConfig toy_config(int64_t max_batch = 8,
                              int64_t token_budget = 4096) {
  sim::ServingConfig cfg;
  cfg.max_batch = max_batch;
  cfg.token_budget = token_budget;
  cfg.step_cost = toy_cost;
  return cfg;
}

std::vector<sim::ServingRequest> toy_trace(double rate_per_s, uint64_t seed,
                                           int n = 48) {
  sim::PoissonTraceSpec spec;
  spec.rate_per_s = rate_per_s;
  spec.num_requests = n;
  spec.prompt_tokens = 16;
  spec.max_new_tokens = 8;
  spec.seed = seed;
  return sim::poisson_trace(spec);
}

// Runs the trace on one replica, then rebuilds the report as a sim::Engine
// graph: every arrival is a pure-delay op on an unbounded ready-order
// resource, every step an op on a capacity-1 program-order lane priced with
// the duration the scheduler was handed, and every prefill depends on the
// arrivals of the next `seqs` requests in FIFO order. The engine's max/+
// clock must realize each step at exactly the reported start and end.
void expect_engine_realizes_report(const std::vector<sim::ServingRequest>& trace,
                                   sim::ServingConfig cfg) {
  std::vector<double> priced;  // every step_cost result, in call order
  cfg.step_cost = [&priced, cost = cfg.step_cost](const sim::StepShape& s) {
    priced.push_back(cost(s));
    return priced.back();
  };
  const auto rep = sim::simulate_serving(trace, cfg);
  ASSERT_EQ(priced.size(), rep.steps.size());

  sim::Engine eng;
  const int arrivals = eng.add_resource(0, sim::ExecPolicy::kReadyOrder);
  const int lane = eng.add_resource(1, sim::ExecPolicy::kProgramOrder);
  std::vector<int> arrival_op;
  for (const auto& r : trace) {
    arrival_op.push_back(eng.add_op(arrivals, r.arrival_ms));
  }
  std::vector<int> step_op;
  size_t next = 0;
  for (size_t k = 0; k < rep.steps.size(); ++k) {
    step_op.push_back(eng.add_op(lane, priced[k]));
    if (!rep.steps[k].prefill) continue;
    for (int64_t j = 0; j < rep.steps[k].seqs; ++j) {
      ASSERT_LT(next, arrival_op.size());
      eng.add_dep(step_op.back(), arrival_op[next++]);
    }
  }
  ASSERT_EQ(next, trace.size()) << "every request is prefilled exactly once";

  const std::vector<sim::OpTiming> times = eng.run();
  for (size_t k = 0; k < rep.steps.size(); ++k) {
    const sim::OpTiming& t = times[static_cast<size_t>(step_op[k])];
    ASSERT_EQ(t.start_ms, rep.steps[k].start_ms) << "step " << k;
    ASSERT_EQ(t.end_ms, rep.steps[k].end_ms) << "step " << k;
  }
}

TEST(PoissonTrace, SeededAndDeterministic) {
  const auto a = toy_trace(4.0, 7);
  const auto b = toy_trace(4.0, 7);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_ms, b[i].arrival_ms) << "request " << i;
  }
  const auto c = toy_trace(4.0, 8);
  bool any_different = false;
  for (size_t i = 0; i < a.size(); ++i) {
    any_different = any_different || a[i].arrival_ms != c[i].arrival_ms;
  }
  EXPECT_TRUE(any_different) << "a different seed must move the arrivals";
}

TEST(PoissonTrace, DoublingTheRateExactlyHalvesArrivals) {
  // Same seed => same unit exponentials; the rate only rescales them, and
  // scaling by a power of two is exact in floating point. This is the
  // order-preservation property that makes tail monotonicity testable.
  const auto slow = toy_trace(2.0, 3);
  const auto fast = toy_trace(4.0, 3);
  ASSERT_EQ(slow.size(), fast.size());
  for (size_t i = 0; i < slow.size(); ++i) {
    EXPECT_DOUBLE_EQ(fast[i].arrival_ms, slow[i].arrival_ms / 2.0);
  }
}

TEST(PoissonTrace, ArrivalsAreSortedAndPositive) {
  const auto t = toy_trace(10.0, 1);
  double prev = 0.0;
  for (const auto& r : t) {
    EXPECT_GT(r.arrival_ms, 0.0);
    EXPECT_GE(r.arrival_ms, prev);
    prev = r.arrival_ms;
  }
}

TEST(Percentiles, NearestRankConvention) {
  // 1..100: nearest-rank p50 = 50th sample, p99 = 99th.
  std::vector<double> s;
  for (int i = 100; i >= 1; --i) s.push_back(static_cast<double>(i));
  const auto p = sim::latency_percentiles(s);
  EXPECT_EQ(p.p50_ms, 50.0);
  EXPECT_EQ(p.p95_ms, 95.0);
  EXPECT_EQ(p.p99_ms, 99.0);
  const auto one = sim::latency_percentiles({42.0});
  EXPECT_EQ(one.p50_ms, 42.0);
  EXPECT_EQ(one.p99_ms, 42.0);
  const auto none = sim::latency_percentiles({});
  EXPECT_EQ(none.p99_ms, 0.0);
}

TEST(Serving, SameInputsSameReport) {
  const auto trace = toy_trace(6.0, 11);
  const auto a = sim::simulate_serving(trace, toy_config());
  const auto b = sim::simulate_serving(trace, toy_config());
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.generated_tokens, b.generated_tokens);
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
  EXPECT_EQ(a.busy_ms, b.busy_ms);
  EXPECT_EQ(a.mean_concurrency, b.mean_concurrency);
  EXPECT_EQ(a.ttft.p99_ms, b.ttft.p99_ms);
  EXPECT_EQ(a.tpot.p99_ms, b.tpot.p99_ms);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].done_ms, b.requests[i].done_ms) << "request " << i;
  }
  ASSERT_EQ(a.steps.size(), b.steps.size());
}

TEST(Serving, EveryRequestCompletesWithItsBudget) {
  const auto trace = toy_trace(6.0, 11);
  const auto rep = sim::simulate_serving(trace, toy_config());
  ASSERT_EQ(rep.completed, static_cast<int64_t>(trace.size()));
  int64_t want_tokens = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    want_tokens += trace[i].max_new_tokens;
    const auto& t = rep.requests[i];
    EXPECT_EQ(t.generated, trace[i].max_new_tokens) << "request " << i;
    EXPECT_GE(t.admit_ms, t.arrival_ms);
    EXPECT_GT(t.first_token_ms, t.admit_ms);
    EXPECT_GE(t.done_ms, t.first_token_ms);
  }
  EXPECT_EQ(rep.generated_tokens, want_tokens);
}

TEST(Serving, LittlesLaw) {
  // L = lambda x W: the time-integrated mean concurrency (event sweep) must
  // equal completions-per-ms x mean end-to-end latency. The two sides are
  // computed from the same timeline by different code paths, so this checks
  // the bookkeeping, not an algebraic identity.
  for (const double rate : {2.0, 8.0, 32.0}) {
    const auto trace = toy_trace(rate, 5);
    const auto rep = sim::simulate_serving(trace, toy_config());
    ASSERT_GT(rep.makespan_ms, 0.0);
    double mean_e2e = 0.0;
    for (const auto& t : rep.requests) mean_e2e += t.e2e_ms();
    mean_e2e /= static_cast<double>(rep.requests.size());
    const double lambda = static_cast<double>(rep.completed) / rep.makespan_ms;
    EXPECT_NEAR(rep.mean_concurrency, lambda * mean_e2e,
                1e-9 * rep.mean_concurrency)
        << "rate " << rate;
  }
}

TEST(Serving, WorkConservation) {
  const auto trace = toy_trace(16.0, 9);
  const auto rep = sim::simulate_serving(trace, toy_config());
  // The replica's steps are serial: disjoint, ordered, inside the horizon.
  double prev_end = 0.0;
  double busy = 0.0;
  for (const auto& s : rep.steps) {
    EXPECT_GE(s.start_ms, prev_end);
    EXPECT_GT(s.end_ms, s.start_ms);
    prev_end = s.end_ms;
    busy += s.end_ms - s.start_ms;
  }
  EXPECT_EQ(busy, rep.busy_ms);
  EXPECT_GE(rep.steps.front().start_ms, trace.front().arrival_ms);
  EXPECT_LE(rep.busy_ms,
            rep.makespan_ms * (1.0 + 1e-12) + 1e-9);
}

TEST(Serving, HigherRateNeverLowersTheTail) {
  // Same seed => same unit exponentials, compressed in time. With an
  // amortization-free cost (strictly linear in tokens, no fixed per-step
  // term) the replica is a work-conserving FIFO server, and the Lindley
  // recursion makes every request's latency non-decreasing as the
  // inter-arrival gaps shrink. NOTE the cost model matters: a fixed per-step
  // cost CAN make p99 drop at higher load, because bigger batches amortize
  // it — that is continuous batching working as intended, not a bug.
  sim::ServingConfig cfg = toy_config();
  cfg.step_cost = [](const sim::StepShape& s) {
    return 0.1 * static_cast<double>(s.new_tokens) +
           0.002 * static_cast<double>(s.context_tokens);
  };
  sim::LatencyPercentiles prev_ttft, prev_e2e;
  bool first = true;
  for (const double rate : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    const auto rep = sim::simulate_serving(toy_trace(rate, 21), cfg);
    const double slack = 1.0 - 1e-12;  // exact ties under FP reassociation
    if (!first) {
      EXPECT_GE(rep.ttft.p99_ms, prev_ttft.p99_ms * slack) << "rate " << rate;
      EXPECT_GE(rep.ttft.p50_ms, prev_ttft.p50_ms * slack) << "rate " << rate;
      EXPECT_GE(rep.e2e.p99_ms, prev_e2e.p99_ms * slack) << "rate " << rate;
    }
    prev_ttft = rep.ttft;
    prev_e2e = rep.e2e;
    first = false;
  }
  // And across the whole sweep the saturation is strict: 16x the arrival
  // rate must visibly stretch the tail.
  const auto slow = sim::simulate_serving(toy_trace(1.0, 21), cfg);
  const auto fast = sim::simulate_serving(toy_trace(16.0, 21), cfg);
  EXPECT_GT(fast.e2e.p99_ms, slow.e2e.p99_ms);
}

TEST(Serving, SingleRequestTimelineIsExact) {
  // One request, constant costs: the whole timeline is checkable by hand.
  // prefill [5, 7), then max_new - 1 decode steps of 1 ms each.
  sim::ServingConfig cfg = toy_config();
  cfg.step_cost = [](const sim::StepShape& s) { return s.prefill ? 2.0 : 1.0; };
  const std::vector<sim::ServingRequest> trace = {{5.0, 16, 4}};
  const auto rep = sim::simulate_serving(trace, cfg);
  ASSERT_EQ(rep.completed, 1);
  const auto& t = rep.requests[0];
  EXPECT_EQ(t.admit_ms, 5.0);
  EXPECT_EQ(t.first_token_ms, 7.0);
  EXPECT_EQ(t.done_ms, 10.0);  // 7 + three decode steps
  EXPECT_EQ(t.generated, 4);
  EXPECT_EQ(rep.ttft.p50_ms, 2.0);
  EXPECT_EQ(rep.ttft.p99_ms, 2.0);
  EXPECT_EQ(rep.e2e.p99_ms, 5.0);
  EXPECT_EQ(rep.makespan_ms, 5.0);
  EXPECT_EQ(rep.busy_ms, 5.0);
  EXPECT_EQ(rep.mean_concurrency, 1.0);
  ASSERT_EQ(rep.steps.size(), 4u);  // 1 prefill + 3 decodes
  EXPECT_TRUE(rep.steps[0].prefill);
}

TEST(Serving, EmptyTraceDegradesGracefully) {
  const auto rep = sim::simulate_serving({}, toy_config());
  EXPECT_EQ(rep.completed, 0);
  EXPECT_EQ(rep.generated_tokens, 0);
  EXPECT_EQ(rep.makespan_ms, 0.0);
  EXPECT_TRUE(rep.steps.empty());
  EXPECT_EQ(rep.ttft.p99_ms, 0.0);
}

TEST(Serving, ZeroTokenGenerationFinishesAtPrefill) {
  // max_new_tokens == 0: the request is prefilled and completes immediately;
  // it contributes no TTFT/TPOT samples (nothing was generated).
  sim::ServingConfig cfg = toy_config();
  cfg.step_cost = [](const sim::StepShape& s) { return s.prefill ? 2.0 : 1.0; };
  const std::vector<sim::ServingRequest> trace = {{0.0, 8, 0}, {0.0, 8, 2}};
  const auto rep = sim::simulate_serving(trace, cfg);
  EXPECT_EQ(rep.requests[0].generated, 0);
  EXPECT_EQ(rep.requests[0].done_ms, rep.requests[0].first_token_ms);
  EXPECT_EQ(rep.generated_tokens, 2);
  // Only request 1 contributes a TTFT sample; both share the prefill step.
  EXPECT_EQ(rep.ttft.p50_ms, rep.requests[1].ttft_ms());
}

TEST(Serving, TokenBudgetSerializesAdmission) {
  // Budget fits exactly one request's prompt + max_new: the second request
  // cannot be admitted until the first completes and frees its reservation.
  sim::ServingConfig cfg = toy_config(/*max_batch=*/8, /*token_budget=*/24);
  const std::vector<sim::ServingRequest> trace = {{0.0, 16, 8}, {0.0, 16, 8}};
  const auto rep = sim::simulate_serving(trace, cfg);
  EXPECT_GE(rep.requests[1].admit_ms, rep.requests[0].done_ms);
  EXPECT_EQ(rep.completed, 2);
}

TEST(Serving, MaxBatchSerializesAdmission) {
  sim::ServingConfig cfg = toy_config(/*max_batch=*/1);
  const std::vector<sim::ServingRequest> trace = {{0.0, 16, 8}, {0.0, 16, 8}};
  const auto rep = sim::simulate_serving(trace, cfg);
  EXPECT_GE(rep.requests[1].admit_ms, rep.requests[0].done_ms);
}

TEST(Serving, ArrivalCursorTieOrder) {
  // Request 0's prefill ends at exactly t = 2.0, when requests 1 and 2
  // arrive. Arrivals at an instant are handled before the dispatch at that
  // instant, so both join ONE prefill that starts at 2.0 — ahead of request
  // 0's first decode, which then batches all three.
  sim::ServingConfig cfg = toy_config();
  cfg.step_cost = [](const sim::StepShape& s) { return s.prefill ? 2.0 : 1.0; };
  const std::vector<sim::ServingRequest> trace = {
      {0.0, 8, 3}, {2.0, 8, 3}, {2.0, 8, 3}};
  const auto rep = sim::simulate_serving(trace, cfg);
  ASSERT_EQ(rep.steps.size(), 4u);
  const struct {
    bool prefill;
    double start, end;
    int64_t seqs;
  } want[] = {{true, 0.0, 2.0, 1},
              {true, 2.0, 4.0, 2},
              {false, 4.0, 5.0, 3},
              {false, 5.0, 6.0, 3}};
  for (size_t k = 0; k < rep.steps.size(); ++k) {
    EXPECT_EQ(rep.steps[k].prefill, want[k].prefill) << "step " << k;
    EXPECT_EQ(rep.steps[k].start_ms, want[k].start) << "step " << k;
    EXPECT_EQ(rep.steps[k].end_ms, want[k].end) << "step " << k;
    EXPECT_EQ(rep.steps[k].seqs, want[k].seqs) << "step " << k;
  }
  for (const size_t i : {1u, 2u}) {
    EXPECT_EQ(rep.requests[i].admit_ms, 2.0) << "request " << i;
    EXPECT_EQ(rep.requests[i].first_token_ms, 4.0) << "request " << i;
  }
  for (const auto& t : rep.requests) EXPECT_EQ(t.done_ms, 6.0);
}

TEST(ServingEngine, RealizesToyTraces) {
  for (const double rate : {2.0, 8.0, 32.0}) {
    SCOPED_TRACE(rate);
    expect_engine_realizes_report(toy_trace(rate, 5), toy_config());
  }
}

TEST(ServingEngine, RealizesAdmissionCaps) {
  const std::vector<sim::ServingRequest> trace = {{0.0, 16, 8}, {0.0, 16, 8}};
  {
    SCOPED_TRACE("token budget");
    expect_engine_realizes_report(trace, toy_config(/*max_batch=*/8,
                                                    /*token_budget=*/24));
  }
  {
    SCOPED_TRACE("max batch");
    expect_engine_realizes_report(trace, toy_config(/*max_batch=*/1));
  }
}

TEST(ServingValidation, PreciseErrors) {
  const std::vector<sim::ServingRequest> ok = {{0.0, 16, 8}};
  sim::ServingConfig no_cost = toy_config();
  no_cost.step_cost = nullptr;
  EXPECT_THROW(sim::validate_serving_inputs(ok, no_cost),
               std::invalid_argument);
  EXPECT_THROW(sim::validate_serving_inputs({{0.0, 0, 8}}, toy_config()),
               std::invalid_argument);  // zero-length prompt
  EXPECT_THROW(sim::validate_serving_inputs({{0.0, 16, -1}}, toy_config()),
               std::invalid_argument);  // negative generation budget
  EXPECT_THROW(sim::validate_serving_inputs({{-1.0, 16, 8}}, toy_config()),
               std::invalid_argument);  // negative arrival
  EXPECT_THROW(
      sim::validate_serving_inputs({{5.0, 16, 8}, {4.0, 16, 8}}, toy_config()),
      std::invalid_argument);  // unsorted arrivals
  EXPECT_THROW(sim::validate_serving_inputs(
                   {{0.0, 16, 8}}, toy_config(/*max_batch=*/8,
                                              /*token_budget=*/16)),
               std::invalid_argument);  // could never be admitted
  EXPECT_THROW(sim::poisson_trace({0.0, 4, 16, 8, 1}),
               std::invalid_argument);  // rate must be positive
}

// ---- The bridge to the calibrated cost model. ----

TEST(InferenceCost, ValidatesShapes) {
  parallel::ModelParallelSimulator sim(
      sim::ClusterSpec::aws_p3(1), nn::BertConfig::bert_large(), {4, 1},
      parallel::TrainJob{});
  const auto plan = core::CompressionPlan::none();
  EXPECT_THROW(sim.inference_step_cost(plan, {0, 1, 1}),
               std::invalid_argument);
  EXPECT_THROW(sim.inference_step_cost(plan, {1, 0, 1}),
               std::invalid_argument);
  EXPECT_THROW(sim.inference_step_cost(plan, {1, 4, 2}),
               std::invalid_argument);  // context < new_tokens
  EXPECT_THROW(sim.run_inference(plan, 0, 4), std::invalid_argument);
  EXPECT_THROW(sim.run_inference(plan, 16, -1), std::invalid_argument);
}

TEST(InferenceCost, BreakdownIsConsistent) {
  parallel::ModelParallelSimulator sim(
      sim::ClusterSpec::aws_p3(1), nn::BertConfig::bert_large(), {4, 1},
      parallel::TrainJob{});
  const auto plan = core::CompressionPlan::none();
  const auto b = sim.run_inference(plan, 128, 32);
  EXPECT_GT(b.ttft_ms, 0.0);
  EXPECT_GT(b.per_token_ms, 0.0);
  EXPECT_NEAR(b.total_ms, b.ttft_ms + 31.0 * b.per_token_ms,
              1e-9 * b.total_ms);
  // Degenerate generations: nothing decoded after the prefill.
  const auto one = sim.run_inference(plan, 128, 1);
  EXPECT_EQ(one.total_ms, one.ttft_ms);
  EXPECT_EQ(one.per_token_ms, 0.0);
  const auto none = sim.run_inference(plan, 128, 0);
  EXPECT_EQ(none.total_ms, none.ttft_ms);
}

TEST(InferenceCost, CompressionTaxesDecodeOnNvlink) {
  // The serving twin of the paper's Takeaway 1: on a fast intra-node link a
  // decode step's collectives are latency-bound, so a compressor's fixed
  // per-step overhead can only hurt.
  parallel::ModelParallelSimulator sim(
      sim::ClusterSpec::aws_p3(1), nn::BertConfig::bert_large(), {4, 1},
      parallel::TrainJob{});
  const auto layers = nn::BertConfig::bert_large().num_layers;
  const parallel::InferenceBatch decode{8, 8, 8 * 144};
  const double base =
      sim.inference_step_cost(core::CompressionPlan::none(), decode).total_ms();
  for (const auto s : {compress::Setting::kA2, compress::Setting::kT3,
                       compress::Setting::kQ2}) {
    const auto plan = core::CompressionPlan::paper_default(s, layers);
    EXPECT_GT(sim.inference_step_cost(plan, decode).total_ms(), base)
        << compress::setting_label(s);
  }
}

TEST(InferenceCost, MakeServingCostMatchesStepCost) {
  parallel::ModelParallelSimulator sim(
      sim::ClusterSpec::aws_p3(2), nn::BertConfig::bert_large(), {8, 1},
      parallel::TrainJob{});
  const auto plan = core::CompressionPlan::paper_default(
      compress::Setting::kQ2, nn::BertConfig::bert_large().num_layers);
  const sim::StepCostFn fn = parallel::make_serving_cost(sim, plan);
  const sim::StepShape prefill{true, 2, 256, 2 * 128 * 129 / 2};
  const sim::StepShape decode{false, 4, 4, 4 * 150};
  EXPECT_EQ(fn(prefill),
            sim.inference_step_cost(plan, {2, 256, 2 * 128 * 129 / 2})
                .total_ms());
  EXPECT_EQ(fn(decode),
            sim.inference_step_cost(plan, {4, 4, 4 * 150}).total_ms());
}

TEST(InferenceCost, ServingEndToEndThroughCalibratedModel) {
  // The full stack: Poisson trace -> continuous batching -> engine-checked
  // schedule, priced by the calibrated simulator. Smoke-checks the shape of
  // the report rather than exact numbers (the golden bench pins those).
  parallel::ModelParallelSimulator mp(
      sim::ClusterSpec::aws_p3(1), nn::BertConfig::bert_large(), {4, 1},
      parallel::TrainJob{});
  sim::ServingConfig cfg;
  cfg.max_batch = 4;
  cfg.token_budget = 1024;
  cfg.step_cost =
      parallel::make_serving_cost(mp, core::CompressionPlan::none());
  sim::PoissonTraceSpec spec;
  spec.rate_per_s = 8.0;
  spec.num_requests = 16;
  spec.prompt_tokens = 64;
  spec.max_new_tokens = 8;
  spec.seed = 2;
  const auto rep = sim::simulate_serving(sim::poisson_trace(spec), cfg);
  EXPECT_EQ(rep.completed, 16);
  EXPECT_EQ(rep.generated_tokens, 16 * 8);
  EXPECT_GT(rep.throughput_tok_s(), 0.0);
  EXPECT_GT(rep.ttft.p50_ms, 0.0);
  EXPECT_GE(rep.ttft.p99_ms, rep.ttft.p50_ms);
  EXPECT_GE(rep.tpot.p99_ms, rep.tpot.p50_ms);
}

TEST(ServingEngine, RealizesCalibratedTrace) {
  // The engine check of ServingEndToEndThroughCalibratedModel's trace:
  // calibrated, non-round durations through the same max/+ clock.
  parallel::ModelParallelSimulator mp(
      sim::ClusterSpec::aws_p3(1), nn::BertConfig::bert_large(), {4, 1},
      parallel::TrainJob{});
  sim::ServingConfig cfg;
  cfg.max_batch = 4;
  cfg.token_budget = 1024;
  cfg.step_cost =
      parallel::make_serving_cost(mp, core::CompressionPlan::none());
  sim::PoissonTraceSpec spec;
  spec.rate_per_s = 8.0;
  spec.num_requests = 16;
  spec.prompt_tokens = 64;
  spec.max_new_tokens = 8;
  spec.seed = 2;
  expect_engine_realizes_report(sim::poisson_trace(spec), cfg);
}

}  // namespace
