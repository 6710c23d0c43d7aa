#include "sim/pipeline.h"

#include <algorithm>
#include <cmath>

#include "obs/profiler.h"
#include "obs/registry.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "tensor/check.h"

namespace actcomp::sim {

namespace {

void check_durations(const std::vector<double>& v, const char* name) {
  for (size_t i = 0; i < v.size(); ++i) {
    ACTCOMP_CHECK(std::isfinite(v[i]) && v[i] >= 0.0,
                  "simulate_pipeline: " << name << "[" << i << "] = " << v[i]
                      << " — durations must be finite and non-negative");
  }
}

/// One schedule step: run `micro`'s forward or backward for model chunk
/// `chunk` on the stage at hand.
struct Step {
  bool backward;
  int chunk;
  int micro;
};

// Megatron's interleaved-1F1B enumeration: virtual step k walks micro-batch
// groups of size `p` through each of the `v` chunks in turn, so forwards go
// (chunk 0: micros 0..p-1), (chunk 1: micros 0..p-1), ..., then the next
// group of p micros. Backwards mirror it with the chunk order reversed.
int interleave_chunk(int k, int p, int v, bool backward) {
  const int c = (k % (p * v)) / p;
  return backward ? v - 1 - c : c;
}
int interleave_micro(int k, int p, int v) { return (k / (p * v)) * p + k % p; }

/// Program order of stage `s` for the requested schedule.
std::vector<Step> stage_program(int s, int p, int v, int m, ScheduleKind kind) {
  std::vector<Step> prog;
  if (kind == ScheduleKind::kGpipe) {
    for (int j = 0; j < m; ++j) prog.push_back({false, 0, j});
    for (int j = 0; j < m; ++j) prog.push_back({true, 0, j});
  } else if (kind == ScheduleKind::k1F1B) {
    // Warmup forwards, steady 1B1F, drain backwards.
    const int warmup = std::min(m, p - s);
    int next_f = 0, next_b = 0;
    for (; next_f < warmup; ++next_f) prog.push_back({false, 0, next_f});
    while (next_b < m) {
      prog.push_back({true, 0, next_b++});
      if (next_f < m) prog.push_back({false, 0, next_f++});
    }
  } else {
    // Interleaved 1F1B (Megatron virtual pipeline): warmup of
    // (p - s - 1)*2 + (v - 1)*p virtual forwards, then steady
    // one-forward-one-backward, then drain.
    const int total = m * v;
    const int warmup = std::min(total, (p - s - 1) * 2 + (v - 1) * p);
    auto fstep = [&](int k) {
      return Step{false, interleave_chunk(k, p, v, false),
                  interleave_micro(k, p, v)};
    };
    auto bstep = [&](int k) {
      return Step{true, interleave_chunk(k, p, v, true),
                  interleave_micro(k, p, v)};
    };
    for (int k = 0; k < warmup; ++k) prog.push_back(fstep(k));
    for (int k = warmup; k < total; ++k) {
      prog.push_back(fstep(k));
      prog.push_back(bstep(k - warmup));
    }
    for (int k = total - warmup; k < total; ++k) prog.push_back(bstep(k));
  }
  return prog;
}

}  // namespace

void validate_pipeline_inputs(const PipelineCosts& c,
                              const PipelineOptions& o) {
  const size_t p = c.fwd_ms.size();
  ACTCOMP_CHECK(p > 0, "simulate_pipeline: fwd_ms is empty — need at least one stage");
  ACTCOMP_CHECK(c.bwd_ms.size() == p, "simulate_pipeline: bwd_ms has "
                                          << c.bwd_ms.size() << " entries, expected stages = " << p);
  ACTCOMP_CHECK(c.p2p_fwd_ms.size() == p - 1,
                "simulate_pipeline: p2p_fwd_ms has " << c.p2p_fwd_ms.size()
                    << " entries, expected stages - 1 = " << p - 1);
  ACTCOMP_CHECK(c.p2p_bwd_ms.size() == p - 1,
                "simulate_pipeline: p2p_bwd_ms has " << c.p2p_bwd_ms.size()
                    << " entries, expected stages - 1 = " << p - 1);
  ACTCOMP_CHECK(c.micro_batches >= 1, "simulate_pipeline: micro_batches = "
                                          << c.micro_batches << ", must be >= 1");
  check_durations(c.fwd_ms, "fwd_ms");
  check_durations(c.bwd_ms, "bwd_ms");
  check_durations(c.p2p_fwd_ms, "p2p_fwd_ms");
  check_durations(c.p2p_bwd_ms, "p2p_bwd_ms");
  check_durations({c.p2p_wrap_fwd_ms, c.p2p_wrap_bwd_ms}, "p2p_wrap_ms");
  if (!c.boundary_shape.empty()) {
    ACTCOMP_CHECK(c.boundary_shape.size() == p - 1,
                  "simulate_pipeline: boundary_shape has "
                      << c.boundary_shape.size() << " entries, expected stages - 1 = "
                      << p - 1 << " (or empty)");
    for (size_t b = 0; b < c.boundary_shape.size(); ++b) {
      const auto& shape = c.boundary_shape[b];
      ACTCOMP_CHECK(shape.slices >= 1 && shape.lanes >= 1,
                    "simulate_pipeline: boundary_shape[" << b << "] = {slices=" << shape.slices
                        << ", lanes=" << shape.lanes << "} — both must be >= 1");
    }
  }
  o.faults.validate();
  ACTCOMP_CHECK(o.faults.straggler_stage < static_cast<int>(p),
                "simulate_pipeline: faults.straggler_stage = "
                    << o.faults.straggler_stage << ", but there are only " << p
                    << " stages");
  ACTCOMP_CHECK(o.faults.faulty_boundary < static_cast<int>(p),
                "simulate_pipeline: faults.faulty_boundary = "
                    << o.faults.faulty_boundary
                    << " out of range — boundaries are 0.." << p - 2
                    << " and the wrap link is " << p - 1);
  if (o.schedule == ScheduleKind::kInterleaved1F1B) {
    ACTCOMP_CHECK(o.virtual_stages >= 2,
                  "simulate_pipeline: interleaved 1F1B needs virtual_stages >= 2, got "
                      << o.virtual_stages);
    ACTCOMP_CHECK(c.micro_batches % static_cast<int>(p) == 0,
                  "simulate_pipeline: interleaved 1F1B needs micro_batches "
                  "divisible by stages, got "
                      << c.micro_batches << " % " << p << " != 0");
  } else {
    ACTCOMP_CHECK(o.virtual_stages == 1,
                  "simulate_pipeline: virtual_stages = "
                      << o.virtual_stages
                      << " is only valid with ScheduleKind::kInterleaved1F1B");
  }
  ACTCOMP_CHECK(c.dp.replicas >= 1, "simulate_pipeline: dp.replicas = "
                                        << c.dp.replicas << ", must be >= 1");
  ACTCOMP_CHECK(c.dp.grad_allreduce_ms.empty() || c.dp.grad_allreduce_ms.size() == p,
                "simulate_pipeline: dp.grad_allreduce_ms has "
                    << c.dp.grad_allreduce_ms.size() << " entries, expected stages = "
                    << p << " (or empty)");
  check_durations(c.dp.grad_allreduce_ms, "dp.grad_allreduce_ms");
}

PipelineTrace simulate_pipeline_traced(const PipelineCosts& costs,
                                       const PipelineOptions& options) {
  validate_pipeline_inputs(costs, options);
  const int p = static_cast<int>(costs.fwd_ms.size());
  const int m = costs.micro_batches;
  const int v = options.schedule == ScheduleKind::kInterleaved1F1B
                    ? options.virtual_stages
                    : 1;

  const int dp_r = costs.dp.replicas;
  const bool dp_active = dp_r > 1 && !costs.dp.grad_allreduce_ms.empty();

  FaultInjector inj(options.faults);

  Engine eng;
  const ExecPolicy stage_policy =
      options.overlap ? ExecPolicy::kReadyOrder : ExecPolicy::kProgramOrder;

  auto idx = [&](int chunk, int stage, int micro) {
    return (static_cast<size_t>(chunk) * static_cast<size_t>(p) +
            static_cast<size_t>(stage)) *
               static_cast<size_t>(m) +
           static_cast<size_t>(micro);
  };

  // Replica 0 keeps full op-id grids for the trace and the breakdown
  // accounting; every replica keeps its backward grid (gradient all-reduce
  // dependencies) and replicas > 0 additionally list their compute ops so
  // the makespan can max over them. With dp.replicas == 1 the loop below
  // runs once and issues exactly the pre-DP construction sequence — same
  // resource ids, op ids, and fault-RNG draw order (the goldens pin this).
  std::vector<int> id_f;
  std::vector<std::vector<int>> rep_id_b(static_cast<size_t>(dp_r));
  std::vector<int> secondary_compute;
  // Realized (fault-adjusted) compute time per stage of replica 0,
  // accumulated in program order. With faults disabled the multiplier is
  // exactly 1.0, so these sums are bit-identical to summing the clean costs.
  std::vector<double> realized_busy(static_cast<size_t>(p), 0.0);
  int backoff_res = -1;

  // Comm op ids are collected alongside their labels so the trace can
  // report them (replica 0 only); fault counters sum over all replicas.
  std::vector<TraceComm> comm_meta;
  std::vector<int> comm_ids;
  int fault_retries = 0;
  double fault_retry_ms = 0.0, fault_backoff_ms = 0.0, fault_wrap_comm = 0.0;
  std::vector<double> fault_boundary_comm(static_cast<size_t>(std::max(0, p - 1)),
                                          0.0);

  for (int rep = 0; rep < dp_r; ++rep) {
    const bool primary = rep == 0;
    std::vector<int> compute(static_cast<size_t>(p));
    for (int s = 0; s < p; ++s) compute[static_cast<size_t>(s)] = eng.add_resource(1, stage_policy);

    // One lane-pool resource per boundary and direction; capacity 0 (no
    // contention) makes a transfer pure dependency delay, matching the
    // original closed-form simulator.
    std::vector<int> link_fwd(static_cast<size_t>(std::max(0, p - 1)));
    std::vector<int> link_bwd = link_fwd;
    for (int b = 0; b + 1 < p; ++b) {
      const int lanes = costs.boundary_shape.empty()
                            ? 0
                            : costs.boundary_shape[static_cast<size_t>(b)].lanes;
      link_fwd[static_cast<size_t>(b)] = eng.add_resource(lanes, ExecPolicy::kReadyOrder);
      link_bwd[static_cast<size_t>(b)] = eng.add_resource(lanes, ExecPolicy::kReadyOrder);
    }
    int wrap_fwd = -1, wrap_bwd = -1;
    if (v > 1) {
      wrap_fwd = eng.add_resource(0, ExecPolicy::kReadyOrder);
      wrap_bwd = eng.add_resource(0, ExecPolicy::kReadyOrder);
    }

    // Compute ops, created in per-stage program order (which is what a
    // kProgramOrder resource executes and a kReadyOrder one prefers).
    std::vector<int> lid_f(static_cast<size_t>(v * p) * static_cast<size_t>(m), -1);
    std::vector<int> lid_b = lid_f;
    for (int s = 0; s < p; ++s) {
      const auto prog = stage_program(s, p, v, m, options.schedule);
      ACTCOMP_ASSERT(prog.size() == static_cast<size_t>(2 * m * v),
                     "stage program must run every op exactly once");
      for (const Step& st : prog) {
        const double dur = (st.backward ? costs.bwd_ms[static_cast<size_t>(s)]
                                        : costs.fwd_ms[static_cast<size_t>(s)]) /
                           static_cast<double>(v) * inj.compute_multiplier(s);
        auto& slot = (st.backward ? lid_b : lid_f)[idx(st.chunk, s, st.micro)];
        ACTCOMP_ASSERT(slot == -1, "duplicate op in stage program");
        slot = eng.add_op(compute[static_cast<size_t>(s)], dur);
        if (primary) {
          realized_busy[static_cast<size_t>(s)] += dur;
        } else {
          secondary_compute.push_back(slot);
        }
      }
    }

    // Backoff delays between outage retries are pure waits — the link is
    // free while a sender backs off — so they live on an unlimited no-op
    // resource, shared across replicas.
    if (primary && inj.enabled()) {
      backoff_res = eng.add_resource(0, ExecPolicy::kReadyOrder);
    }

    // Transfers and dependencies. Under fault injection a transfer becomes:
    // [hung attempt (link, timeout) -> backoff (delay)]* -> transfer (link,
    // degraded duration); only link-occupying ops are traced.
    auto add_transfer = [&](int resource, double dur, int slices, int producer,
                            int consumer, TraceComm label) {
      const double fdur = dur * inj.transfer_multiplier(label.boundary);
      for (int sl = 0; sl < slices; ++sl) {
        label.slice = sl;
        int prev = producer;
        const int fails = inj.draw_outages(label.boundary);
        for (int a = 1; a <= fails; ++a) {
          const int hung = eng.add_op(resource, inj.attempt_timeout_ms());
          eng.add_dep(hung, prev);
          label.attempt = a - 1;
          label.failed = true;
          if (primary) {
            comm_ids.push_back(hung);
            comm_meta.push_back(label);
          }
          const int wait = eng.add_op(backoff_res, inj.backoff_ms(a));
          eng.add_dep(wait, hung);
          prev = wait;
          ++fault_retries;
          fault_retry_ms += inj.attempt_timeout_ms();
          fault_backoff_ms += inj.backoff_ms(a);
        }
        const int cid = eng.add_op(resource, fdur);
        eng.add_dep(cid, prev);
        eng.add_dep(consumer, cid);
        label.attempt = fails;
        label.failed = false;
        if (primary) {
          comm_ids.push_back(cid);
          comm_meta.push_back(label);
        }
        if (inj.enabled()) {
          if (label.wrap) {
            fault_wrap_comm += fdur;
          } else {
            fault_boundary_comm[static_cast<size_t>(label.boundary)] += fdur;
          }
        }
      }
    };

    for (int c = 0; c < v; ++c) {
      for (int s = 0; s < p; ++s) {
        for (int j = 0; j < m; ++j) {
          const int f = lid_f[idx(c, s, j)];
          const int b = lid_b[idx(c, s, j)];
          if (s > 0) {
            const int bd = s - 1;
            const int slices =
                costs.boundary_shape.empty()
                    ? 1
                    : costs.boundary_shape[static_cast<size_t>(bd)].slices;
            add_transfer(link_fwd[static_cast<size_t>(bd)],
                         costs.p2p_fwd_ms[static_cast<size_t>(bd)], slices,
                         lid_f[idx(c, s - 1, j)], f,
                         {bd, false, 0, c, j, false, 0.0, 0.0});
          } else if (c > 0) {
            add_transfer(wrap_fwd, costs.p2p_wrap_fwd_ms, 1,
                         lid_f[idx(c - 1, p - 1, j)], f,
                         {p - 1, true, 0, c, j, false, 0.0, 0.0});
          }
          if (s < p - 1) {
            const int slices =
                costs.boundary_shape.empty()
                    ? 1
                    : costs.boundary_shape[static_cast<size_t>(s)].slices;
            add_transfer(link_bwd[static_cast<size_t>(s)],
                         costs.p2p_bwd_ms[static_cast<size_t>(s)], slices,
                         lid_b[idx(c, s + 1, j)], b,
                         {s, false, 0, c, j, true, 0.0, 0.0});
          } else if (c < v - 1) {
            add_transfer(wrap_bwd, costs.p2p_wrap_bwd_ms, 1,
                         lid_b[idx(c + 1, 0, j)], b,
                         {p - 1, true, 0, c, j, true, 0.0, 0.0});
          } else {
            // Loss turnaround: the last chunk's backward follows its forward.
            eng.add_dep(b, f);
          }
        }
      }
    }

    if (primary) id_f = std::move(lid_f);
    rep_id_b[static_cast<size_t>(rep)] = std::move(lid_b);
  }
  const std::vector<int>& id_b = rep_id_b[0];

  // Gradient all-reduce tail: one op per (stage, model chunk) on a per-stage
  // capacity-1 program-order DP link (all-reduces launch in a fixed bucket
  // order, as NCCL does), depending on the bucket's backwards in every
  // replica — every micro-batch's backward for that (stage, chunk), since a
  // ready-order stage may realize them out of program order.
  std::vector<int> ar_ids;
  double dp_comm_total = 0.0;
  if (dp_active) {
    std::vector<int> dp_link(static_cast<size_t>(p));
    for (int s = 0; s < p; ++s) {
      dp_link[static_cast<size_t>(s)] = eng.add_resource(1, ExecPolicy::kProgramOrder);
    }
    std::vector<int> sentinel(static_cast<size_t>(dp_r), -1);
    if (!costs.dp.overlap_grads) {
      // Synchronous DP: one zero-duration "backward pass done" sentinel per
      // replica gates every all-reduce.
      const int sync_res = eng.add_resource(0, ExecPolicy::kReadyOrder);
      for (int rep = 0; rep < dp_r; ++rep) {
        const int sen = eng.add_op(sync_res, 0.0);
        for (int bid : rep_id_b[static_cast<size_t>(rep)]) eng.add_dep(sen, bid);
        sentinel[static_cast<size_t>(rep)] = sen;
      }
    }
    ar_ids.reserve(static_cast<size_t>(p) * static_cast<size_t>(v));
    for (int s = 0; s < p; ++s) {
      for (int c = 0; c < v; ++c) {
        const double dur =
            costs.dp.grad_allreduce_ms[static_cast<size_t>(s)] /
            static_cast<double>(v);
        const int ar = eng.add_op(dp_link[static_cast<size_t>(s)], dur);
        for (int rep = 0; rep < dp_r; ++rep) {
          if (costs.dp.overlap_grads) {
            for (int j = 0; j < m; ++j) {
              eng.add_dep(ar, rep_id_b[static_cast<size_t>(rep)][idx(c, s, j)]);
            }
          } else {
            eng.add_dep(ar, sentinel[static_cast<size_t>(rep)]);
          }
        }
        ar_ids.push_back(ar);
        dp_comm_total += dur;
      }
    }
  }

  std::vector<OpTiming> times;
  {
    ACTCOMP_PROFILE("sim.engine.run");
    times = eng.run();
  }
  if (fault_retries > 0) {
    obs::Registry& reg = obs::Registry::instance();
    reg.counter("sim.fault.retries").add(fault_retries);
    reg.histogram("sim.fault.retry_ms").observe(fault_retry_ms);
    reg.histogram("sim.fault.backoff_ms").observe(fault_backoff_ms);
  }

  PipelineTrace trace;
  // Compute ops: iterate in id (creation) order so per-stage busy sums add
  // in program order, then sort into realized execution order.
  PipelineResult& r = trace.result;
  r.stage_busy_ms = realized_busy;
  r.fault_retries = fault_retries;
  r.fault_retry_ms = fault_retry_ms;
  r.fault_backoff_ms = fault_backoff_ms;
  for (int c = 0; c < v; ++c) {
    for (int s = 0; s < p; ++s) {
      for (int j = 0; j < m; ++j) {
        for (const bool backward : {false, true}) {
          const int id = (backward ? id_b : id_f)[idx(c, s, j)];
          const OpTiming& t = times[static_cast<size_t>(id)];
          trace.ops.push_back({s, j, backward, t.start_ms, t.end_ms, c});
        }
      }
    }
  }
  std::sort(trace.ops.begin(), trace.ops.end(),
            [](const TraceOp& a, const TraceOp& b) {
              if (a.start_ms != b.start_ms) return a.start_ms < b.start_ms;
              if (a.stage != b.stage) return a.stage < b.stage;
              if (a.chunk != b.chunk) return a.chunk < b.chunk;
              if (a.micro != b.micro) return a.micro < b.micro;
              return a.backward < b.backward;
            });
  for (size_t i = 0; i < comm_ids.size(); ++i) {
    TraceComm cm = comm_meta[i];
    cm.start_ms = times[static_cast<size_t>(comm_ids[i])].start_ms;
    cm.end_ms = times[static_cast<size_t>(comm_ids[i])].end_ms;
    trace.comms.push_back(cm);
  }
  std::sort(trace.comms.begin(), trace.comms.end(),
            [](const TraceComm& a, const TraceComm& b) {
              if (a.start_ms != b.start_ms) return a.start_ms < b.start_ms;
              if (a.boundary != b.boundary) return a.boundary < b.boundary;
              if (a.micro != b.micro) return a.micro < b.micro;
              return a.slice < b.slice;
            });

  // Aggregates: same accounting as the original closed-loop simulator (busy
  // time was accumulated at op creation, in the same program order).
  r.makespan_ms = 0.0;
  for (int s = 0; s < p; ++s) {
    const auto prog = stage_program(s, p, v, m, options.schedule);
    for (const Step& st : prog) {
      const int id = (st.backward ? id_b : id_f)[idx(st.chunk, s, st.micro)];
      r.makespan_ms = std::max(r.makespan_ms, times[static_cast<size_t>(id)].end_ms);
    }
  }
  // Other replicas' compute and the gradient all-reduce tail extend the
  // iteration; with dp.replicas == 1 both lists are empty.
  for (int id : secondary_compute) {
    r.makespan_ms = std::max(r.makespan_ms, times[static_cast<size_t>(id)].end_ms);
  }
  for (int id : ar_ids) {
    r.makespan_ms = std::max(r.makespan_ms, times[static_cast<size_t>(id)].end_ms);
  }
  r.dp_replicas = dp_r;
  r.dp_comm_ms = dp_comm_total;
  r.stage_idle_ms.resize(static_cast<size_t>(p));
  for (int s = 0; s < p; ++s) {
    r.stage_idle_ms[static_cast<size_t>(s)] =
        r.makespan_ms - r.stage_busy_ms[static_cast<size_t>(s)];
  }
  r.boundary_comm_ms.resize(static_cast<size_t>(std::max(0, p - 1)));
  if (inj.enabled()) {
    // Realized (degraded) durations of the successful transfers; hung
    // attempts are reported separately via fault_retry_ms.
    r.boundary_comm_ms = fault_boundary_comm;
    r.wrap_comm_ms = fault_wrap_comm;
  } else {
    for (int b = 0; b + 1 < p; ++b) {
      const int slices = costs.boundary_shape.empty()
                             ? 1
                             : costs.boundary_shape[static_cast<size_t>(b)].slices;
      r.boundary_comm_ms[static_cast<size_t>(b)] =
          static_cast<double>(m * v * slices) *
          (costs.p2p_fwd_ms[static_cast<size_t>(b)] +
           costs.p2p_bwd_ms[static_cast<size_t>(b)]);
    }
    r.wrap_comm_ms = static_cast<double>(m * (v - 1)) *
                     (costs.p2p_wrap_fwd_ms + costs.p2p_wrap_bwd_ms);
  }
  // "Waiting & pipeline comm": mean per-stage idle plus the mean boundary
  // transfer burden. For p == 1 both terms are zero.
  double idle_sum = 0.0;
  for (double x : r.stage_idle_ms) idle_sum += x;
  double comm_sum = 0.0;
  for (double x : r.boundary_comm_ms) comm_sum += x;
  r.waiting_and_pipe_ms =
      idle_sum / static_cast<double>(p) +
      (p > 1 ? comm_sum / static_cast<double>(p - 1) : 0.0);
  return trace;
}

PipelineTrace simulate_pipeline_traced(const PipelineCosts& costs,
                                       ScheduleKind kind) {
  return simulate_pipeline_traced(costs, PipelineOptions{kind, 1, false});
}

PipelineResult simulate_pipeline(const PipelineCosts& costs,
                                 const PipelineOptions& options) {
  return simulate_pipeline_traced(costs, options).result;
}

PipelineResult simulate_pipeline(const PipelineCosts& costs, ScheduleKind kind) {
  return simulate_pipeline_traced(costs, kind).result;
}

}  // namespace actcomp::sim
