// ModelParallelSimulator: iteration-time simulation of Megatron-style
// TP x PP Transformer training with activation compression.
//
// Builds per-stage forward/backward costs (roofline compute + collective
// comm + calibrated encode/decode overheads), per-boundary p2p costs, runs
// the pipeline schedule, and reports the same breakdown columns as the
// paper's Tables 4 and 7.
//
// Topology rules (paper §4.7 / Narayanan et al.): tensor parallelism is
// mapped inside a node whenever tp <= gpus_per_node; when tp exceeds the
// node size the TP group spills onto the inter-node link — this is what
// makes the paper's TP=8/PP=2 row (Table 6) an order of magnitude slower.
#pragma once

#include <cstdint>
#include <vector>

#include "core/compression_plan.h"
#include "nn/bert.h"
#include "obs/accounting.h"
#include "sim/collectives.h"
#include "sim/hardware.h"
#include "sim/overhead.h"
#include "sim/pipeline.h"
#include "sim/serving.h"

namespace actcomp::parallel {

struct ParallelConfig {
  int tp = 1;  ///< tensor model-parallel degree (innermost, intra-node)
  int pp = 1;  ///< pipeline model-parallel degree
  int dp = 1;  ///< data-parallel degree (outermost; replicas of the tp*pp grid)
};

/// Execution-model knobs for the discrete-event pipeline engine.
struct SimOptions {
  sim::ScheduleKind schedule = sim::ScheduleKind::k1F1B;
  /// Model chunks per stage (Megatron virtual pipeline); >= 2 requires
  /// schedule == kInterleaved1F1B, layers divisible by pp*virtual_stages,
  /// and num_micro divisible by pp.
  int virtual_stages = 1;
  /// Async p2p: a stage computes micro-batch i while micro-batch i-1's
  /// activations are still in flight, instead of stalling in program order.
  bool overlap = false;
  /// Model the Megatron scatter-gather boundary slices as discrete messages
  /// queuing on the link's lanes (tp parallel NVLink lanes, or ONE lane for
  /// a shared NIC / PCIe bridge), replacing boundary_parallelism()'s
  /// closed-form divide-by-parallelism approximation.
  bool link_contention = false;
  /// Seeded fault scenario (stragglers, degraded links, outage/retry chains)
  /// injected into the pipeline op graph; disabled by default. See
  /// sim/faults.h and bench/ablation_faults.
  sim::FaultProfile faults;

  /// Compress the data-parallel gradient all-reduce payload with this
  /// setting (kBaseline = fp16 gradients on the wire). Priced with the same
  /// OverheadModel encode/decode costs as activation compression; the codec
  /// work is serialized with the all-reduce on the DP link. Only read when
  /// parallel.dp > 1.
  compress::Setting dp_grad_setting = compress::Setting::kBaseline;
  /// Overlap gradient all-reduces with the backward drain (bucketed DDP);
  /// false appends them as a synchronous phase. Only read when dp > 1.
  bool dp_overlap_grads = true;

  /// Lossless wire stage on the model-parallel links (DESIGN.md §16,
  /// compress/lossless.h): every TP collective payload and pipeline-boundary
  /// message shrinks by the measured codec ratio, and each endpoint pays
  /// encode/decode at the measured GB/s — chunk-pipelined against the
  /// transfer when chunks > 1 (sim::chunk_pipelined_ms). Composes with the
  /// lossy wire formats: a lossy plan plus an enabled spec prices the
  /// stacked (lossless-over-lossy) column. Scope: the training run() only,
  /// virtual_stages == 1 (the constructor enforces this), and NOT the DP
  /// gradient all-reduce (dp_grad_setting already owns gradient payloads).
  /// Disabled (default) is bit-identical to the pre-existing cost model.
  sim::LosslessWireSpec lossless_wire;

  SimOptions() = default;
  SimOptions(sim::ScheduleKind s, int v, bool ov, bool contention,
             sim::FaultProfile f = {})
      : schedule(s),
        virtual_stages(v),
        overlap(ov),
        link_contention(contention),
        faults(f) {}
};

struct TrainJob {
  int64_t micro_batch = 32;
  int64_t num_micro = 1;   ///< micro-batches per iteration (global/micro)
  int64_t seq = 512;
};

/// Shape of one forward-only inference step over a batch of sequences
/// (prefill: new_tokens = sum of prompt lengths; decode: new_tokens = seqs).
/// `context_tokens` is the total KV positions attended across new tokens.
struct InferenceBatch {
  int64_t seqs = 1;
  int64_t new_tokens = 1;
  int64_t context_tokens = 1;
};

/// Cost decomposition of one inference step on one pipeline traversal.
struct InferenceStepCost {
  double compute_ms = 0.0;   ///< GEMMs + attention, summed over all layers
  double tp_comm_ms = 0.0;   ///< the per-layer TP collectives (2 per layer)
  double enc_ms = 0.0;       ///< compression encode at TP points + boundaries
  double dec_ms = 0.0;       ///< decode (x tp copies under all-gather)
  double p2p_ms = 0.0;       ///< pipeline-boundary activations
  double dispatch_ms = 0.0;  ///< fixed per-compressed-point launch overhead

  double total_ms() const {
    return compute_ms + tp_comm_ms + enc_ms + dec_ms + p2p_ms + dispatch_ms;
  }
};

/// TTFT/TPOT summary for one (prompt, generate) request shape.
struct InferenceBreakdown {
  double ttft_ms = 0.0;       ///< the prefill step
  double per_token_ms = 0.0;  ///< mean decode step over the generation
  double total_ms = 0.0;
  InferenceStepCost prefill;
  InferenceStepCost first_decode;
};

/// Per-iteration timing, decomposed as in the paper's breakdown tables.
struct IterationBreakdown {
  double makespan_ms = 0.0;   ///< pipeline schedule makespan (excl. optimizer)
  double optimizer_ms = 0.0;

  /// One micro-batch's traversal of the whole pipeline (sum over stages).
  /// Matches the paper's Forward/Backward columns for single-micro-batch
  /// fine-tuning (Table 4).
  double fwd_critical_ms = 0.0;
  double bwd_critical_ms = 0.0;
  /// Busiest rank's total forward/backward time across all micro-batches.
  /// Matches the paper's pre-training convention (Table 7).
  double fwd_busy_max_ms = 0.0;
  double bwd_busy_max_ms = 0.0;

  /// Busiest stage's per-iteration encode/decode/TP-communication totals
  /// (the last three columns of Tables 4 and 7).
  double enc_ms = 0.0;
  double dec_ms = 0.0;
  double tensor_comm_ms = 0.0;

  /// Per-boundary p2p transfer totals per iteration (Table 9 reports the
  /// forward direction).
  std::vector<double> boundary_fwd_ms;
  std::vector<double> boundary_bwd_ms;

  /// Fault-injection accounting (zero on clean runs): hung transfer
  /// attempts and the link/backoff time they burned.
  int fault_retries = 0;
  double fault_retry_ms = 0.0;

  /// Data-parallel accounting (dp_replicas == 1, dp_comm_ms == 0 on 2D
  /// runs): replicas simulated and the total gradient all-reduce time per
  /// iteration (encode/decode included when dp_grad_setting compresses).
  int dp_replicas = 1;
  double dp_comm_ms = 0.0;

  /// Busiest stage's per-iteration lossless codec time (zero unless
  /// SimOptions::lossless_wire is enabled). Reported separately from
  /// enc_ms/dec_ms and NOT added to any phase column: the codec runs inside
  /// the chunk-pipelined transfer spans, so its serialized share is already
  /// inside tensor_comm_ms and the boundary p2p durations.
  double lossless_enc_ms = 0.0;
  double lossless_dec_ms = 0.0;

  double total_ms() const { return makespan_ms + optimizer_ms; }
  /// "Waiting & Pipeline Comm." under the fine-tune accounting.
  double waiting_finetune_ms() const {
    return std::max(0.0, makespan_ms - fwd_critical_ms - bwd_critical_ms);
  }
  /// "Waiting & Pipeline Comm." under the pre-train accounting.
  double waiting_pretrain_ms() const {
    return std::max(0.0, makespan_ms - fwd_busy_max_ms - bwd_busy_max_ms);
  }

  /// Project onto the paper's Table 4/7 columns. This is the ONLY place the
  /// finetune-vs-pretrain column choice is made; benches and RunReports both
  /// go through it (obs/accounting.h).
  obs::PhaseBreakdown phase_breakdown(obs::Accounting accounting) const;
};

class ModelParallelSimulator {
 public:
  ModelParallelSimulator(sim::ClusterSpec cluster, nn::BertConfig model,
                         ParallelConfig parallel, TrainJob job,
                         sim::ScheduleKind schedule = sim::ScheduleKind::k1F1B);
  ModelParallelSimulator(sim::ClusterSpec cluster, nn::BertConfig model,
                         ParallelConfig parallel, TrainJob job,
                         SimOptions options);

  IterationBreakdown run(const core::CompressionPlan& plan) const;

  /// Baseline convenience.
  IterationBreakdown run_baseline() const {
    return run(core::CompressionPlan::none());
  }

  /// Prices one forward-only inference step (serving): per-layer GEMM +
  /// attention FLOPs split over tp, the two per-layer TP collective points
  /// with the SAME compressed-collective rules as the training forward
  /// (all-reduce for baseline/AE, all-gather + tp decode copies for
  /// sparse/quant), and the pp-1 boundary p2p hops. TrainJob batch/seq are
  /// ignored — the step shape is the argument.
  InferenceStepCost inference_step_cost(const core::CompressionPlan& plan,
                                        const InferenceBatch& batch) const;

  /// One request's latency profile: a prefill over `prompt_tokens`, then
  /// `new_tokens - 1` single-token decode steps at growing context (priced
  /// exactly, not at a mean context). batch > 1 decodes that many requests
  /// in lockstep.
  InferenceBreakdown run_inference(const core::CompressionPlan& plan,
                                   int64_t prompt_tokens, int64_t new_tokens,
                                   int64_t batch = 1) const;

  const sim::OverheadModel& overhead_model() const { return overhead_; }
  sim::OverheadModel& overhead_model() { return overhead_; }

  /// Total parameter count of the configured model (for optimizer cost).
  static int64_t parameter_count(const nn::BertConfig& cfg);

 private:
  struct TpPoint;
  /// Prices one TP point: a forward collective of a `numel`-element
  /// activation sent under `setting` (kBaseline: uncompressed), through the
  /// lossless stage `lw`. The one pricing path of run() and
  /// inference_step_cost().
  TpPoint tp_point(compress::Setting setting, int64_t numel,
                   const sim::LosslessWireSpec& lw) const;
  /// Link crossing the pipeline boundary from stage `from` to stage `to`
  /// (adjacent stages, or the interleaved wrap from pp-1 to 0).
  const sim::LinkSpec& boundary_link(int from, int to) const;
  /// Whether that boundary's p2p traffic leaves the node.
  bool boundary_cross_node(int from, int to) const;
  /// Scatter-gather parallelism factor on that boundary (paper's Megatron
  /// optimization splits the boundary tensor across TP ranks; the slices
  /// move in parallel over NVLink but share a single NIC or PCIe bridge).
  /// Also the lane count when options_.link_contention queues the slices on
  /// explicit lane resources instead of dividing by it.
  double boundary_parallelism(int from, int to) const;
  /// DP-group shape on the cluster: how many of the dp peers share a node
  /// (`intra`) and how many node islands the group spans (`inter`);
  /// intra * inter == dp. Replicas are tp*pp-GPU blocks laid out
  /// contiguously, so peers share a node only when the whole model-parallel
  /// grid fits inside one.
  void dp_group_shape(int* intra, int* inter) const;

  sim::ClusterSpec cluster_;
  nn::BertConfig model_;
  ParallelConfig parallel_;
  TrainJob job_;
  SimOptions options_;
  sim::OverheadModel overhead_;
};

/// Bridge to sim/serving: a StepCostFn pricing every scheduler step through
/// `sim.inference_step_cost(plan, ·)`. Captures copies, so the returned
/// function outlives both arguments.
sim::StepCostFn make_serving_cost(const ModelParallelSimulator& sim,
                                  const core::CompressionPlan& plan);

/// The canonical serving degradation ladder, quality-first: w/o -> Q3
/// (8-bit) -> Q2 (4-bit) -> T3 (Top-K). Rung settings in ladder order.
std::vector<compress::Setting> serving_ladder_settings();

/// One StepCostFn per rung of serving_ladder_settings(), each pricing steps
/// through `sim` with the paper_default CompressionPlan for that setting
/// over `num_layers` layers. Rung 0 is the uncompressed clean-path cost —
/// feeding the ladder to sim::ResilientServingConfig::cost_ladder gives the
/// SLO degradation controller progressively cheaper wire formats to escalate
/// through (the paper's slow-network regime is exactly where the later rungs
/// buy back step time).
std::vector<sim::StepCostFn> make_serving_cost_ladder(
    const ModelParallelSimulator& sim, int64_t num_layers);

}  // namespace actcomp::parallel
