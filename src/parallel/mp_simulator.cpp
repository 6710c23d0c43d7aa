#include "parallel/mp_simulator.h"

#include <algorithm>
#include <string>

#include "compress/settings.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "sim/collectives.h"
#include "tensor/check.h"

namespace actcomp::parallel {

namespace cp = actcomp::compress;
namespace sm = actcomp::sim;

namespace {

/// A message of `raw` bytes through the lossless wire stage (DESIGN.md §16,
/// ZipCCL-style link shim): the link carries the coded bytes, and each
/// endpoint pays one encode and one decode at the measured GB/s,
/// chunk-pipelined against the transfer. The codec time is INSIDE the
/// returned span; `*enc`/`*dec` only report it. `transfer(bytes)` prices the
/// link. A disabled stage passes the transfer through untouched, so the
/// lossy-only cost model is reproduced bit for bit.
template <class Transfer>
double through_lossless(const sm::LosslessWireSpec& lw, int64_t raw,
                        Transfer transfer, double* enc, double* dec) {
  if (!lw.enabled) return transfer(raw);
  const double e = sm::codec_ms(raw, lw.encode_gb_s);
  const double d = sm::codec_ms(raw, lw.decode_gb_s);
  *enc += e;
  *dec += d;
  return sm::chunk_pipelined_ms(e, transfer(sm::lossless_wire_bytes(raw, lw)),
                                d, lw.chunks);
}

}  // namespace

/// One compressible TP point: a forward collective of the layer's
/// activation, sent uncompressed (kBaseline) or under the plan's setting.
struct ModelParallelSimulator::TpPoint {
  int64_t bytes = 0;         ///< one rank's message on the wire, pre-lossless
  double dispatch_ms = 0.0;  ///< fixed launch cost, outside the enc/dec timers
  double enc_ms = 0.0;
  double comm_ms = 0.0;      ///< the collective, lossless codec included
  double dec_ms = 0.0;
  double ll_enc_ms = 0.0;    ///< lossless codec time inside comm_ms
  double ll_dec_ms = 0.0;
};

ModelParallelSimulator::TpPoint ModelParallelSimulator::tp_point(
    cp::Setting setting, int64_t numel, const sm::LosslessWireSpec& lw) const {
  const int tp = parallel_.tp;
  const int64_t h = model_.hidden;
  const sim::LinkSpec& link = cluster_.tp_link(tp);
  // Multi-tensor wire formats cannot ride all-reduce (§3.2): all-gather,
  // then every rank decodes all tp messages.
  const cp::Family f = cp::family(setting);
  const bool gather = f != cp::Family::kNone && f != cp::Family::kAutoencoder;
  TpPoint p;
  p.bytes = cp::wire_bytes(setting, numel, h);
  p.comm_ms = through_lossless(
      lw, p.bytes,
      [&](int64_t b) {
        return gather ? sm::allgather_ms(b, tp, link)
                      : sm::allreduce_ms(b, tp, link);
      },
      &p.ll_enc_ms, &p.ll_dec_ms);
  if (setting != cp::Setting::kBaseline) {
    p.dispatch_ms = overhead_.dispatch_ms;
    p.enc_ms = overhead_.encode_ms(setting, numel, h);
    p.dec_ms = overhead_.decode_ms(setting, numel, h, gather ? tp : 1);
  }
  return p;
}

obs::PhaseBreakdown IterationBreakdown::phase_breakdown(
    obs::Accounting accounting) const {
  const bool ft = accounting == obs::Accounting::kFinetune;
  obs::PhaseBreakdown b;
  b.forward_ms = ft ? fwd_critical_ms : fwd_busy_max_ms;
  b.backward_ms = ft ? bwd_critical_ms : bwd_busy_max_ms;
  b.optimizer_ms = optimizer_ms;
  b.waiting_ms = ft ? waiting_finetune_ms() : waiting_pretrain_ms();
  b.total_ms = total_ms();
  b.encode_ms = enc_ms;
  b.decode_ms = dec_ms;
  b.tensor_comm_ms = tensor_comm_ms;
  return b;
}

ModelParallelSimulator::ModelParallelSimulator(sim::ClusterSpec cluster,
                                               nn::BertConfig model,
                                               ParallelConfig parallel,
                                               TrainJob job,
                                               sim::ScheduleKind schedule)
    : ModelParallelSimulator(std::move(cluster), model, parallel, job,
                             SimOptions{schedule, 1, false, false}) {}

ModelParallelSimulator::ModelParallelSimulator(sim::ClusterSpec cluster,
                                               nn::BertConfig model,
                                               ParallelConfig parallel,
                                               TrainJob job, SimOptions options)
    : cluster_(std::move(cluster)),
      model_(model),
      parallel_(parallel),
      job_(job),
      options_(options) {
  cluster_.validate();
  ACTCOMP_CHECK(parallel_.tp >= 1 && parallel_.pp >= 1 && parallel_.dp >= 1,
                "bad parallel degrees");
  ACTCOMP_CHECK(parallel_.tp * parallel_.pp * parallel_.dp == cluster_.total_gpus(),
                "tp*pp*dp = " << parallel_.tp * parallel_.pp * parallel_.dp
                              << " != cluster GPUs " << cluster_.total_gpus());
  ACTCOMP_CHECK(model_.num_layers % parallel_.pp == 0,
                "layers " << model_.num_layers << " not divisible by pp "
                          << parallel_.pp);
  ACTCOMP_CHECK(job_.micro_batch > 0 && job_.num_micro > 0 && job_.seq > 0,
                "bad train job");
  const int v = options_.virtual_stages;
  if (options_.schedule == sim::ScheduleKind::kInterleaved1F1B) {
    ACTCOMP_CHECK(v >= 2, "interleaved 1F1B needs virtual_stages >= 2");
    ACTCOMP_CHECK(
        model_.num_layers % (parallel_.pp * static_cast<int64_t>(v)) == 0,
        "layers " << model_.num_layers << " not divisible by pp*v = "
                  << parallel_.pp * v);
    ACTCOMP_CHECK(job_.num_micro % parallel_.pp == 0,
                  "interleaved 1F1B needs num_micro divisible by pp");
  } else {
    ACTCOMP_CHECK(v == 1,
                  "virtual_stages > 1 requires ScheduleKind::kInterleaved1F1B");
  }
  if (options_.lossless_wire.enabled) {
    ACTCOMP_CHECK(v == 1,
                  "lossless_wire models one message per boundary crossing and "
                  "is only supported with virtual_stages == 1");
    ACTCOMP_CHECK(options_.lossless_wire.ratio > 0.0 &&
                      options_.lossless_wire.ratio <= 1.0,
                  "lossless_wire.ratio must be in (0, 1], got "
                      << options_.lossless_wire.ratio);
    ACTCOMP_CHECK(options_.lossless_wire.chunks >= 1,
                  "lossless_wire.chunks must be >= 1, got "
                      << options_.lossless_wire.chunks);
  }
  overhead_.gpu = cluster_.gpu;
}

const sim::LinkSpec& ModelParallelSimulator::boundary_link(int from,
                                                         int to) const {
  return boundary_cross_node(from, to) ? cluster_.inter_node
                                       : cluster_.intra_node;
}

bool ModelParallelSimulator::boundary_cross_node(int from, int to) const {
  // Stage s occupies global GPUs [s*tp, (s+1)*tp); the boundary crosses
  // nodes iff the two stages' lead GPUs live on different nodes.
  const int gpu_a = from * parallel_.tp;
  const int gpu_b = to * parallel_.tp;
  return gpu_a / cluster_.gpus_per_node != gpu_b / cluster_.gpus_per_node;
}

double ModelParallelSimulator::boundary_parallelism(int from, int to) const {
  if (boundary_cross_node(from, to)) return 1.0;  // slices share one NIC
  if (!cluster_.has_nvlink) return 1.0;  // slices share one PCIe bridge
  return static_cast<double>(parallel_.tp);  // parallel NVLink lanes
}

void ModelParallelSimulator::dp_group_shape(int* intra, int* inter) const {
  const int mp = parallel_.tp * parallel_.pp;
  int in_node = std::min(parallel_.dp, std::max(1, cluster_.gpus_per_node / mp));
  // Keep the two-level split exact; a ragged fit degenerates to all-inter.
  if (parallel_.dp % in_node != 0) in_node = 1;
  *intra = in_node;
  *inter = parallel_.dp / in_node;
}

int64_t ModelParallelSimulator::parameter_count(const nn::BertConfig& cfg) {
  // Per layer: QKV+output projections 4h^2 + MLP 8h^2 + biases/LN ~ 13h.
  const int64_t per_layer = 12 * cfg.hidden * cfg.hidden + 13 * cfg.hidden;
  return cfg.num_layers * per_layer + (cfg.vocab_size + cfg.max_seq) * cfg.hidden;
}

IterationBreakdown ModelParallelSimulator::run(
    const core::CompressionPlan& plan) const {
  ACTCOMP_PROFILE("parallel.mp_sim.run");
  const int tp = parallel_.tp;
  const int pp = parallel_.pp;
  const int64_t h = model_.hidden;
  const int64_t layers_per_stage = model_.num_layers / pp;
  const int64_t msg_numel = job_.micro_batch * job_.seq * h;  // one TP / boundary tensor
  const cp::Setting setting = plan.setting;

  // Paper §4.7 / Narayanan et al.: FLOPs (fwd+bwd) per layer per micro-batch.
  const double layer_total_flops = sm::layer_flops(job_.micro_batch, job_.seq, h);
  const double layer_fwd_ms = cluster_.gpu.compute_ms(layer_total_flops / 3.0 / tp);
  const double layer_bwd_ms =
      cluster_.gpu.compute_ms(2.0 * layer_total_flops / 3.0 / tp);

  sm::PipelineCosts costs;
  costs.micro_batches = static_cast<int>(job_.num_micro);
  costs.fwd_ms.assign(static_cast<size_t>(pp), 0.0);
  costs.bwd_ms.assign(static_cast<size_t>(pp), 0.0);
  costs.p2p_fwd_ms.assign(static_cast<size_t>(pp - 1), 0.0);
  costs.p2p_bwd_ms.assign(static_cast<size_t>(pp - 1), 0.0);

  std::vector<double> stage_enc(static_cast<size_t>(pp), 0.0);
  std::vector<double> stage_dec(static_cast<size_t>(pp), 0.0);
  std::vector<double> stage_tp_comm(static_cast<size_t>(pp), 0.0);
  // Lossless codec time per stage (zero when the stage is disabled).
  std::vector<double> stage_ll_enc(static_cast<size_t>(pp), 0.0);
  std::vector<double> stage_ll_dec(static_cast<size_t>(pp), 0.0);
  // Per-micro-batch bytes crossing each pipeline boundary (summed over
  // chunks under interleaving); flushed into per-link counters at the end.
  std::vector<int64_t> link_fwd_bytes(static_cast<size_t>(pp - 1), 0);
  std::vector<int64_t> link_bwd_bytes(link_fwd_bytes.size(), 0);

  // Every layer sends the same two messages, so each is priced once: the
  // uncompressed one (also every backward all-reduce) and the plan's.
  const sm::LosslessWireSpec& lw = options_.lossless_wire;
  const TpPoint plain = tp_point(cp::Setting::kBaseline, msg_numel, lw);
  const TpPoint comp = tp_point(setting, msg_numel, lw);
  const double comp_bwd_extra_ms =
      2.0 * overhead_.backward_extra_ms(setting, msg_numel, h);

  for (int stage = 0; stage < pp; ++stage) {
    double fwd = 0.0, bwd = 0.0, enc = 0.0, dec = 0.0, comm = 0.0;
    double ll_e = 0.0, ll_d = 0.0;
    for (int64_t l = stage * layers_per_stage; l < (stage + 1) * layers_per_stage;
         ++l) {
      fwd += layer_fwd_ms;
      bwd += layer_bwd_ms;
      if (tp > 1) {
        // Two forward collectives (attention out, MLP out) — the
        // compressible points — and two backward all-reduces (input grads),
        // never compressed.
        const bool compressed = plan.compresses(l);
        const TpPoint& p = compressed ? comp : plain;
        for (int point = 0; point < 2; ++point) {
          fwd += p.dispatch_ms;
          enc += p.enc_ms;
          comm += p.comm_ms;
          dec += p.dec_ms;
          ll_e += p.ll_enc_ms;
          ll_d += p.ll_dec_ms;
        }
        // The backward pair is summed before the += (a + a == 2.0 * a in
        // IEEE, whereas (comm += a) twice rounds differently); its codec
        // times are reported one message at a time.
        comm += plain.comm_ms + plain.comm_ms;
        for (int point = 0; point < 2; ++point) {
          ll_e += plain.ll_enc_ms;
          ll_d += plain.ll_dec_ms;
        }
        if (compressed) bwd += comp_bwd_extra_ms;
      }
    }
    // TP comm and codec work happen inside the forward/backward steps.
    const double fwd_comm_share = tp > 1 ? comm / 2.0 : 0.0;  // fwd all-reduces
    costs.fwd_ms[static_cast<size_t>(stage)] = fwd + fwd_comm_share + enc + dec;
    costs.bwd_ms[static_cast<size_t>(stage)] = bwd + (comm - fwd_comm_share);
    stage_enc[static_cast<size_t>(stage)] = enc;
    stage_dec[static_cast<size_t>(stage)] = dec;
    stage_tp_comm[static_cast<size_t>(stage)] = comm;
    stage_ll_enc[static_cast<size_t>(stage)] = ll_e;
    stage_ll_dec[static_cast<size_t>(stage)] = ll_d;
  }

  // Pipeline boundaries. The activation leaving stage `st` feeds the first
  // layer of stage st+1; it is compressed iff that consumer layer is in the
  // plan window (matches the paper's Table 9, where with the last 12 of 24
  // layers compressed and pp=4, boundaries 1<->2 and 2<->3 shrink but 0<->1
  // does not). Sparse and AE gradients shrink with the forward message; the
  // quantized one does NOT (paper §3.3: the backward engine only supports
  // float gradients, so the gradient stays activation-sized).
  const int64_t comp_bwd_bytes =
      cp::family(setting) == cp::Family::kQuantize ? plain.bytes : comp.bytes;
  // Sender encodes at the end of its forward; receiver decodes at the start
  // of its forward.
  const double bd_dec_ms = overhead_.decode_ms(setting, msg_numel, h);
  // One crossing of the activation that feeds `consumer_layer`, sent from
  // stage `src` to stage `dst`: adds its bytes to the sums and charges its
  // codec.
  auto cross = [&](int64_t consumer_layer, int src, int dst, double* fwd_sum,
                   double* bwd_sum) {
    const bool compressed = plan.compresses(consumer_layer);
    *fwd_sum += static_cast<double>(compressed ? comp.bytes : plain.bytes);
    *bwd_sum += static_cast<double>(compressed ? comp_bwd_bytes : plain.bytes);
    if (!compressed) return;
    costs.fwd_ms[static_cast<size_t>(src)] += comp.enc_ms + overhead_.dispatch_ms / 2;
    costs.fwd_ms[static_cast<size_t>(dst)] += bd_dec_ms + overhead_.dispatch_ms / 2;
    stage_enc[static_cast<size_t>(src)] += comp.enc_ms;
    stage_dec[static_cast<size_t>(dst)] += bd_dec_ms;
  };
  if (options_.link_contention) {
    // Engine-level contention: the boundary tensor moves as tp
    // scatter-gather slices over the link's lanes (tp parallel NVLink
    // lanes, or a single shared NIC / PCIe lane), so slice launch latency
    // and cross-micro-batch queuing are simulated instead of approximated.
    costs.boundary_shape.resize(static_cast<size_t>(pp - 1));
    for (int bd = 0; bd + 1 < pp; ++bd) {
      auto& shape = costs.boundary_shape[static_cast<size_t>(bd)];
      shape.slices = tp;
      shape.lanes = static_cast<int>(boundary_parallelism(bd, bd + 1));
    }
  }
  // Interleaving crosses each boundary once per model chunk (and the wrap
  // link between consecutive chunks). The engine charges one p2p duration
  // per boundary, so the per-chunk wire sizes are averaged — the total
  // traffic is preserved exactly; per-crossing variation within one
  // boundary is smoothed.
  const int v = options_.virtual_stages;
  const int64_t layers_per_chunk = model_.num_layers / (pp * v);
  for (int bd = 0; bd + 1 < pp; ++bd) {
    double fwd_sum = 0.0, bwd_sum = 0.0;
    for (int c = 0; c < v; ++c) {
      cross((static_cast<int64_t>(c) * pp + bd + 1) * layers_per_chunk, bd,
            bd + 1, &fwd_sum, &bwd_sum);
    }
    // p2p duration of one transfer (or one slice, under contention).
    const sim::LinkSpec& link = boundary_link(bd, bd + 1);
    const double par = boundary_parallelism(bd, bd + 1);
    auto p2p = [&](int64_t bytes) {
      if (options_.link_contention) return sm::p2p_ms(bytes / tp, link);
      return sm::p2p_ms(
          static_cast<int64_t>(static_cast<double>(bytes) / par), link);
    };
    const auto b = static_cast<size_t>(bd);
    costs.p2p_fwd_ms[b] =
        through_lossless(lw, static_cast<int64_t>(fwd_sum / v), p2p,
                         &stage_ll_enc[b], &stage_ll_dec[b + 1]);
    costs.p2p_bwd_ms[b] =
        through_lossless(lw, static_cast<int64_t>(bwd_sum / v), p2p,
                         &stage_ll_enc[b + 1], &stage_ll_dec[b]);
    link_fwd_bytes[b] =
        sm::lossless_wire_bytes(static_cast<int64_t>(fwd_sum), lw);
    link_bwd_bytes[b] =
        sm::lossless_wire_bytes(static_cast<int64_t>(bwd_sum), lw);
  }
  if (v > 1 && pp > 1) {
    // Wrap link (stage pp-1 -> stage 0), crossed between chunks c and c+1.
    double fwd_sum = 0.0, bwd_sum = 0.0;
    for (int c = 0; c + 1 < v; ++c) {
      cross((static_cast<int64_t>(c) * pp + pp) * layers_per_chunk, pp - 1, 0,
            &fwd_sum, &bwd_sum);
    }
    const sim::LinkSpec& wrap_link = boundary_link(pp - 1, 0);
    const double wrap_par = boundary_parallelism(pp - 1, 0);
    costs.p2p_wrap_fwd_ms = sm::p2p_ms(
        static_cast<int64_t>(fwd_sum / (v - 1) / wrap_par), wrap_link);
    costs.p2p_wrap_bwd_ms = sm::p2p_ms(
        static_cast<int64_t>(bwd_sum / (v - 1) / wrap_par), wrap_link);
  }

  // Data-parallel axis: dp replicas of the tp*pp grid, coupled by a
  // per-stage gradient all-reduce over the DP group. The group is
  // hierarchical on the cluster — peers inside a node reduce over NVLink,
  // one leader per node rings over the spine-adjusted cross-node link.
  // Gradients may be compressed (dp_grad_setting); codec time is serialized
  // with the collective on the DP link, and the wire-size model is the same
  // one activations use (the gradient shard is priced as a numel-element
  // tensor of hidden-sized rows).
  if (parallel_.dp > 1) {
    costs.dp.replicas = parallel_.dp;
    costs.dp.overlap_grads = options_.dp_overlap_grads;
    const cp::Setting gset = options_.dp_grad_setting;
    const int64_t grad_elems = parameter_count(model_) / (tp * pp);
    const int64_t grad_wire = cp::wire_bytes(gset, grad_elems, h);
    const double g_enc = overhead_.encode_ms(gset, grad_elems, h);
    const double g_dec = overhead_.decode_ms(gset, grad_elems, h);
    int dp_intra = 1, dp_inter = 1;
    dp_group_shape(&dp_intra, &dp_inter);
    const sim::LinkSpec cross =
        cluster_.topology.cross_node(cluster_.inter_node, dp_inter);
    const double ar_ms =
        sm::hierarchical_allreduce_ms(grad_wire, dp_intra, dp_inter,
                                      cluster_.intra_node, cross) +
        g_enc + g_dec;
    costs.dp.grad_allreduce_ms.assign(static_cast<size_t>(pp), ar_ms);
  }

  const sm::PipelineResult pres = sm::simulate_pipeline(
      costs, sm::PipelineOptions{options_.schedule, options_.virtual_stages,
                                 options_.overlap, options_.faults});

  IterationBreakdown out;
  out.makespan_ms = pres.makespan_ms;
  out.fault_retries = pres.fault_retries;
  out.fault_retry_ms = pres.fault_retry_ms + pres.fault_backoff_ms;
  out.dp_replicas = pres.dp_replicas;
  out.dp_comm_ms = pres.dp_comm_ms;
  const int64_t params_per_rank = parameter_count(model_) / (tp * pp);
  // Fused Adam on V100: ~0.04 ns/param plus a fixed launch cost (fitted to
  // the paper's 5-8 ms optimizer rows).
  out.optimizer_ms = 3.0 + static_cast<double>(params_per_rank) * 0.04e-6;

  const double m = static_cast<double>(job_.num_micro);
  for (int stage = 0; stage < pp; ++stage) {
    out.fwd_critical_ms += costs.fwd_ms[static_cast<size_t>(stage)];
    out.bwd_critical_ms += costs.bwd_ms[static_cast<size_t>(stage)];
    out.fwd_busy_max_ms =
        std::max(out.fwd_busy_max_ms, m * costs.fwd_ms[static_cast<size_t>(stage)]);
    out.bwd_busy_max_ms =
        std::max(out.bwd_busy_max_ms, m * costs.bwd_ms[static_cast<size_t>(stage)]);
  }
  // The paper profiles the last pipeline stage's rank (where the compressed
  // layers live under the default last-half plan); report that stage's
  // per-iteration totals.
  out.enc_ms = m * stage_enc[static_cast<size_t>(pp - 1)];
  out.dec_ms = m * stage_dec[static_cast<size_t>(pp - 1)];
  out.tensor_comm_ms = m * stage_tp_comm[static_cast<size_t>(pp - 1)];
  out.lossless_enc_ms = m * stage_ll_enc[static_cast<size_t>(pp - 1)];
  out.lossless_dec_ms = m * stage_ll_dec[static_cast<size_t>(pp - 1)];
  for (int bd = 0; bd + 1 < pp; ++bd) {
    out.boundary_fwd_ms.push_back(m * costs.p2p_fwd_ms[static_cast<size_t>(bd)]);
    out.boundary_bwd_ms.push_back(m * costs.p2p_bwd_ms[static_cast<size_t>(bd)]);
  }
  // Bytes-on-wire per link, per iteration simulated. Cumulative across run()
  // calls, so a sweep's report shows the traffic of the whole sweep.
  obs::Registry& reg = obs::Registry::instance();
  for (size_t bd = 0; bd < link_fwd_bytes.size(); ++bd) {
    const std::string base = "parallel.link.b" + std::to_string(bd);
    reg.counter(base + ".fwd_bytes").add(job_.num_micro * link_fwd_bytes[bd]);
    reg.counter(base + ".bwd_bytes").add(job_.num_micro * link_bwd_bytes[bd]);
  }
  return out;
}

InferenceStepCost ModelParallelSimulator::inference_step_cost(
    const core::CompressionPlan& plan, const InferenceBatch& batch) const {
  ACTCOMP_CHECK(batch.seqs >= 1,
                "inference batch needs seqs >= 1, got " << batch.seqs);
  ACTCOMP_CHECK(batch.new_tokens >= 1,
                "inference batch needs new_tokens >= 1, got " << batch.new_tokens);
  ACTCOMP_CHECK(batch.context_tokens >= batch.new_tokens,
                "context_tokens = " << batch.context_tokens << " < new_tokens = "
                                    << batch.new_tokens
                                    << " — every new token attends at least "
                                       "itself");
  const int tp = parallel_.tp;
  const int pp = parallel_.pp;
  const int64_t h = model_.hidden;
  const int64_t layers_per_stage = model_.num_layers / pp;
  // One TP collective moves the new tokens' activations only — the KV cache
  // stays resident on its ranks. This is why decode steps are latency-bound:
  // msg_numel collapses to seqs*h per step.
  const int64_t msg_numel = batch.new_tokens * h;
  // Forward-only FLOPs, the training model's fwd third specialized to
  // incremental attention: GEMMs scale with new tokens, attention with the
  // attended (query, key) pairs.
  const double gemm_flops = 32.0 * static_cast<double>(batch.new_tokens) *
                            static_cast<double>(h) * static_cast<double>(h);
  const double attn_flops =
      16.0 / 3.0 * static_cast<double>(batch.context_tokens) *
      static_cast<double>(h);
  const double layer_ms = cluster_.gpu.compute_ms((gemm_flops + attn_flops) / tp);
  // The same two compressible forward collectives per layer as training
  // (attention out, MLP out), priced once each; no backward all-reduces
  // exist here, and the lossless wire stage stays off.
  const TpPoint plain = tp_point(cp::Setting::kBaseline, msg_numel, {});
  const TpPoint comp = tp_point(plan.setting, msg_numel, {});

  InferenceStepCost out;
  for (int64_t l = 0; l < model_.num_layers; ++l) {
    out.compute_ms += layer_ms;
    if (tp > 1) {
      const TpPoint& p = plan.compresses(l) ? comp : plain;
      for (int point = 0; point < 2; ++point) {
        out.dispatch_ms += p.dispatch_ms;
        out.enc_ms += p.enc_ms;
        out.tp_comm_ms += p.comm_ms;
        out.dec_ms += p.dec_ms;
      }
    }
  }
  for (int bd = 0; bd + 1 < pp; ++bd) {
    const bool compressed =
        plan.compresses(static_cast<int64_t>(bd + 1) * layers_per_stage);
    const int64_t bytes = compressed ? comp.bytes : plain.bytes;
    const double par = boundary_parallelism(bd, bd + 1);
    out.p2p_ms +=
        sm::p2p_ms(static_cast<int64_t>(static_cast<double>(bytes) / par),
                   boundary_link(bd, bd + 1));
    if (compressed) {
      out.dispatch_ms += overhead_.dispatch_ms;
      out.enc_ms += comp.enc_ms;
      out.dec_ms += overhead_.decode_ms(plan.setting, msg_numel, h);
    }
  }
  return out;
}

InferenceBreakdown ModelParallelSimulator::run_inference(
    const core::CompressionPlan& plan, int64_t prompt_tokens,
    int64_t new_tokens, int64_t batch) const {
  ACTCOMP_CHECK(prompt_tokens >= 1,
                "run_inference needs prompt_tokens >= 1, got " << prompt_tokens);
  ACTCOMP_CHECK(new_tokens >= 0,
                "run_inference needs new_tokens >= 0, got " << new_tokens);
  ACTCOMP_CHECK(batch >= 1, "run_inference needs batch >= 1, got " << batch);

  InferenceBreakdown out;
  const InferenceBatch pre{batch, batch * prompt_tokens,
                           batch * prompt_tokens * (prompt_tokens + 1) / 2};
  out.prefill = inference_step_cost(plan, pre);
  out.ttft_ms = out.prefill.total_ms();
  out.total_ms = out.ttft_ms;
  // Token g of the generation (g >= 1; token 0 falls out of the prefill) is
  // decoded at context prompt + g. Summed exactly, not at a mean context.
  double decode_sum = 0.0;
  for (int64_t g = 1; g < new_tokens; ++g) {
    const InferenceBatch dec{batch, batch, batch * (prompt_tokens + g)};
    const InferenceStepCost c = inference_step_cost(plan, dec);
    if (g == 1) out.first_decode = c;
    decode_sum += c.total_ms();
  }
  if (new_tokens >= 2) {
    out.per_token_ms = decode_sum / static_cast<double>(new_tokens - 1);
    out.total_ms += decode_sum;
  }
  return out;
}

sim::StepCostFn make_serving_cost(const ModelParallelSimulator& sim,
                                  const core::CompressionPlan& plan) {
  return [sim, plan](const sim::StepShape& shape) {
    const InferenceBatch batch{shape.seqs, shape.new_tokens,
                               shape.context_tokens};
    return sim.inference_step_cost(plan, batch).total_ms();
  };
}

std::vector<compress::Setting> serving_ladder_settings() {
  return {compress::Setting::kBaseline, compress::Setting::kQ3,
          compress::Setting::kQ2, compress::Setting::kT3};
}

std::vector<sim::StepCostFn> make_serving_cost_ladder(
    const ModelParallelSimulator& sim, int64_t num_layers) {
  std::vector<sim::StepCostFn> ladder;
  for (const compress::Setting s : serving_ladder_settings()) {
    ladder.push_back(make_serving_cost(
        sim, core::CompressionPlan::paper_default(s, num_layers)));
  }
  return ladder;
}

}  // namespace actcomp::parallel
