// Hardware models for the two platforms the paper evaluates (§4.1):
//   * AWS p3.8xlarge — 4 × V100 with NVLink, 10 Gbps between instances;
//   * a local 4 × V100 server with a single PCIe bridge (no NVLink).
//
// Calibration notes (documented where each constant is used):
//   * NVLink effective collective bandwidth 100 GB/s (40 GB/s per link,
//     striped across the p3.8xlarge hybrid mesh — see hardware.cpp).
//   * PCIe effective bandwidth 11 GB/s — fitted from the paper's Table 4
//     baseline tensor-communication time (48 all-reduces of 33.6 MB in
//     150.72 ms at TP=2 implies ≈ 10.7 GB/s effective).
//   * V100 peak 112 fp16 TFLOP/s; Megatron-on-V100 utilization fitted from
//     Table 2's TP=1/PP=4 row (see GpuSpec::mfu).
#pragma once

#include <cstdint>
#include <string>

namespace actcomp::sim {

/// Alpha-beta link model: time = latency + bytes / bandwidth.
struct LinkSpec {
  double bandwidth_gb_s = 1.0;  ///< effective bandwidth, GB/s (1e9 bytes/s)
  double latency_us = 10.0;     ///< per-message launch latency

  double transfer_ms(int64_t bytes) const {
    return latency_us * 1e-3 +
           static_cast<double>(bytes) / (bandwidth_gb_s * 1e9) * 1e3;
  }
};

/// Degradation and outage model for a link, consumed by the fault-injection
/// layer (sim/faults.h). The default is a healthy link: no slowdown, no
/// outages. All perturbations only lengthen transfers, so a faulted run can
/// never beat the clean one.
struct LinkFaultSpec {
  /// Persistent bandwidth loss: every transfer duration is multiplied by
  /// this factor (>= 1). 4.0 models a link running at a quarter speed.
  double degrade_factor = 1.0;
  /// Probability, per transfer attempt, that the attempt hangs and must be
  /// retried. In [0, 1).
  double outage_rate = 0.0;
  /// A hung attempt occupies the link until this detection timeout fires.
  double timeout_ms = 0.0;
  /// Backoff before retry k is backoff_ms * 2^(k-1); the link is free to
  /// serve other transfers while a sender backs off.
  double backoff_ms = 0.0;
  /// Cap on failed attempts per transfer; the attempt after the last failure
  /// always succeeds, so every simulation terminates.
  int max_retries = 3;

  bool faulty() const { return degrade_factor > 1.0 || outage_rate > 0.0; }
};

/// Fail-stop crash model for a model-parallel job, consumed by the
/// crash-recovery layer (sim/recovery.h). Unlike LinkFaultSpec's transient
/// outages — which a retry chain absorbs within the iteration — a crash
/// kills the whole synchronous job: every stage must roll back to the last
/// checkpoint and replay. The default is crash-free.
struct CrashSpec {
  /// Per-stage mean time between fail-stop crashes (exponential arrivals).
  /// 0 disables crashes entirely.
  double mtbf_ms = 0.0;
  /// Stages crashing independently; the job-level failure rate is
  /// num_stages / mtbf_ms (the minimum of independent exponentials).
  int num_stages = 1;
  /// Delay until the failure detector fires (the job burns this time
  /// computing results that will be discarded).
  double detect_ms = 0.0;
  /// Restart / rejoin cost paid once per crash before replay begins.
  double restart_ms = 0.0;

  bool enabled() const { return mtbf_ms > 0.0; }
  /// Throws std::invalid_argument with a "CrashSpec: ..." message on
  /// non-finite or negative times, or num_stages < 1. FaultProfile and
  /// RecoveryConfig both validate their crash spec through it.
  void validate() const;
  /// Job-level MTBF: mtbf_ms / num_stages.
  double effective_mtbf_ms() const {
    return mtbf_ms / static_cast<double>(num_stages);
  }
};

/// FLOPs (fwd+bwd) of one Transformer layer over a batch x seq x hidden
/// activation: 96·B·s·h² + 16·B·s²·h (the paper's Eq. 1, after Narayanan
/// et al.). The forward pass is a third of it.
double layer_flops(int64_t batch, int64_t seq, int64_t hidden);

struct GpuSpec {
  double peak_fp16_tflops = 112.0;  ///< V100 tensor-core peak
  /// Achieved fraction of peak for transformer-layer GEMMs. The paper's
  /// Table 2 TP=1/PP=4 row (24 BERT-Large layers in ~590 ms) implies ≈ 65%
  /// of peak, while its TP=4 rows imply more; 55% splits the difference so
  /// every distributed setting lands within ~20% of the paper's baseline.
  double mfu = 0.55;

  double compute_ms(double flops) const {
    return flops / (peak_fp16_tflops * 1e12 * mfu) * 1e3;
  }
};

/// Spine topology above the node-local islands. kFlat reproduces the
/// original two-level ClusterSpec semantics exactly: inter_node is the only
/// cross-node path and its LinkSpec is used as-is. The hierarchical spines
/// model a datacenter fabric:
///   * kFatTree — full-bisection Clos: per-node injection bandwidth is
///     preserved at any scale, but each switch tier adds one inter_node
///     latency (tiers = ceil(log_16 nodes), a 16-port leaf radix);
///   * kOversubscribed — Ethernet spine whose uplinks are provisioned at
///     1/oversubscription of the leaf bandwidth: cross-spine traffic sees
///     inter_node bandwidth divided by the factor, same tier latency.
struct TopologySpec {
  enum class Spine { kFlat, kFatTree, kOversubscribed };
  Spine spine = Spine::kFlat;
  /// Uplink oversubscription factor (>= 1); only read for kOversubscribed.
  double oversubscription = 1.0;

  bool hierarchical() const { return spine != Spine::kFlat; }
  /// Number of switch tiers a cross-node message traverses when `nodes`
  /// nodes hang off the spine (1 tier per factor-of-16 fan-out; >= 1).
  int tiers(int nodes) const;
  /// The cross-node link a collective spanning `nodes` nodes observes:
  /// `inter` itself for kFlat, otherwise bandwidth/latency adjusted per the
  /// spine model above.
  LinkSpec cross_node(const LinkSpec& inter, int nodes) const;
};

struct ClusterSpec {
  std::string name;
  int num_nodes = 1;
  int gpus_per_node = 4;
  bool has_nvlink = true;
  LinkSpec intra_node;  ///< GPU<->GPU inside one node
  LinkSpec inter_node;  ///< node<->node network (leaf uplink)
  TopologySpec topology;  ///< spine above the nodes (default: flat)
  GpuSpec gpu;

  int total_gpus() const { return num_nodes * gpus_per_node; }
  /// Link a TP group of `tp` ranks communicates over: NVLink/PCIe inside
  /// the node when the group fits in one, else the inter-node network.
  const LinkSpec& tp_link(int tp) const {
    return tp <= gpus_per_node ? intra_node : inter_node;
  }

  /// Validates counts and link parameters; throws std::invalid_argument
  /// with a "ClusterSpec: ..." message naming the offending field. Factories
  /// validate on construction; call after mutating a spec by hand.
  void validate() const;

  /// AWS p3.8xlarge: NVLink 40 GB/s intra, 10 Gbps (1.25 GB/s) inter.
  static ClusterSpec aws_p3(int num_nodes);
  /// Local server: 4 V100s behind one PCIe bridge, no NVLink.
  static ClusterSpec local_pcie();
  /// Datacenter: 8-GPU NVLink islands under a 100 GbE spine. `spine`
  /// selects fat-tree (full bisection) or oversubscribed uplinks.
  static ClusterSpec datacenter(int num_nodes,
                                TopologySpec::Spine spine = TopologySpec::Spine::kFatTree,
                                double oversubscription = 1.0);
};

}  // namespace actcomp::sim
