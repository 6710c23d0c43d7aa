// The paper's §4.7 analytical cost model.
//
//   T      = T_comp(96·B·s·h² + 16·B·s²·h) + T_comm(B·s·h)            (Eq. 1)
//   T_comp = α · FLOPs           (α fitted at the LARGEST hidden size, where
//                                 the GPU is near peak utilization — fitting
//                                 at small h mispredicts by up to 30×, §4.7)
//   T_comm = c                     if elements < d     (one launch round)
//          = β · elements          otherwise                           (piecewise)
//   T_AE   = T_comp(FLOPs) + T_comm(B·s·e) + γ·B·s·h                  (AE overhead)
//
// and the cluster-scaling speedup (Eq. 3):
//
//        ((m−1)/n + 1)·L·T + (n−1)·B·s·h/w
//   S = ------------------------------------
//        ((m−1)/n + 1)·L·T_AE + (n−1)·B·s·e/w
//
// Ground truth here is the calibrated simulator (src/sim) — the same role
// the real cluster played for the paper; fit_perf_model() runs the paper's
// fitting procedure against it.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/hardware.h"

namespace actcomp::perf {

struct PerfModelParams {
  double alpha_ms_per_flop = 0.0;
  double beta_ms_per_elem = 0.0;   ///< comm slope above the threshold
  double comm_const_ms = 0.2;      ///< c: single-round launch cost
  double comm_threshold_elems = 409600.0;  ///< d (paper: 16·128·200/... = 409600)
  double gamma_ms_per_elem = 0.0;  ///< AE encode+decode per input element
};

/// Eq. 1's FLOPs of one Transformer layer, the simulator's own count.
using sim::layer_flops;

double t_comp(const PerfModelParams& p, double flops);
double t_comm(const PerfModelParams& p, double elements);
double t_overhead(const PerfModelParams& p, int64_t batch, int64_t seq,
                  int64_t hidden);

/// Per-layer time without / with AE compression (encoder dim `e`).
double layer_time(const PerfModelParams& p, int64_t batch, int64_t seq,
                  int64_t hidden);
double layer_time_ae(const PerfModelParams& p, int64_t batch, int64_t seq,
                     int64_t hidden, int64_t e);

/// Eq. 2: single-node speedup T / T_AE (independent of layer count).
double speedup_single_node(const PerfModelParams& p, int64_t batch, int64_t seq,
                           int64_t hidden, int64_t e);

/// Eq. 3: speedup when pipelining L layers over n nodes with m micro-batches
/// and inter-node bandwidth `bandwidth_elems_per_ms` (activation elements/ms).
double speedup_cluster(const PerfModelParams& p, int64_t micro_batch, int64_t seq,
                       int64_t hidden, int64_t e, int64_t layers, int64_t nodes,
                       int64_t num_micro, double bandwidth_elems_per_ms);

/// Shape of a dp x pp x tp configuration for the Eq. 3 extrapolation below.
/// The tensor-parallel degree does not appear explicitly: α is fitted per
/// rank at a given tp (fit_perf_model), so layer_time() already yields the
/// per-rank stage time, and grad_elems_per_rank carries the 1/(tp·pp)
/// parameter sharding.
struct Analytic3dConfig {
  int64_t micro_batch = 1;
  int64_t seq = 1;
  int64_t hidden = 1;
  int64_t layers = 1;
  int64_t num_micro = 1;
  int pp = 1;  ///< pipeline stages
  int dp = 1;  ///< data-parallel replicas of the tp*pp grid
  /// Pipeline-boundary p2p bandwidth, activation elements/ms.
  double boundary_elems_per_ms = 1.0;
  /// Gradient all-reduce bandwidth on the DP group's bottleneck link,
  /// elements/ms.
  double dp_elems_per_ms = 1.0;
  /// Gradient elements all-reduced per rank (parameters / (tp·pp)).
  double grad_elems_per_rank = 0.0;
};

/// §4.7's Eq. 3 extrapolated to the full 3D grid: analytic per-iteration
/// time in ms. The pipeline term is Eq. 3's occupancy form
/// ((m−1)/pp + 1)·L·T plus fill+drain boundary transfers in BOTH
/// directions (2·(pp−1)·B·s·h/w); the data-parallel term is a flat ring
/// all-reduce of the per-rank gradient shard, 2·(dp−1)/dp·G/w_dp, appended
/// un-overlapped. The simulator (bench/ablation_3d) deviates from this by
/// exactly the effects the closed form ignores: non-uniform warmup/drain
/// structure, hierarchical all-reduce latency savings, and backward-overlap
/// of the gradient traffic.
double iteration_time_3d(const PerfModelParams& p, const Analytic3dConfig& c);

// ---- "measurements" (simulator ground truth) ----

/// Single-layer measurements at tensor-parallel degree `tp` on `cluster`,
/// mirroring the paper's Fig. 5 probes.
struct LayerMeasurement {
  int64_t hidden = 0;
  double comp_ms = 0.0;      ///< per-layer fwd+bwd compute (per rank)
  double comm_ms = 0.0;      ///< one all-reduce of the B·s·h activation
  double ae_overhead_ms = 0.0;  ///< AE encode+decode (e = 100)
};

LayerMeasurement measure_layer(const sim::ClusterSpec& cluster, int tp,
                               int64_t batch, int64_t seq, int64_t hidden,
                               int64_t e);

/// The paper's fitting procedure over a hidden-size sweep: α from the
/// largest-h point, (β, c, d) as a piecewise comm fit, γ as a least-squares
/// slope of the AE overhead.
PerfModelParams fit_perf_model(const sim::ClusterSpec& cluster, int tp,
                               int64_t batch, int64_t seq,
                               const std::vector<int64_t>& hidden_sizes,
                               int64_t e);

/// One row of the paper's Table 10 weak-scaling study.
struct WeakScalingRow {
  int64_t hidden;
  int64_t layers;
  int64_t nodes;
  int64_t global_batch;
  double speedup;
};

/// The Megatron weak-scaling configurations of Table 10 (micro-batch 16,
/// TP=4), evaluated under Eq. 3 with the fitted params.
std::vector<WeakScalingRow> weak_scaling_table(const PerfModelParams& p,
                                               const sim::ClusterSpec& cluster,
                                               int64_t e);

}  // namespace actcomp::perf
