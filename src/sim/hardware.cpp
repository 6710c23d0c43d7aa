#include "sim/hardware.h"

#include <cmath>
#include <stdexcept>

#include "tensor/check.h"

namespace actcomp::sim {

double layer_flops(int64_t batch, int64_t seq, int64_t hidden) {
  const double b = static_cast<double>(batch);
  const double s = static_cast<double>(seq);
  const double h = static_cast<double>(hidden);
  return 96.0 * b * s * h * h + 16.0 * b * s * s * h;
}

int TopologySpec::tiers(int nodes) const {
  ACTCOMP_CHECK(nodes >= 1, "TopologySpec: nodes must be >= 1, got " << nodes);
  if (spine == Spine::kFlat || nodes <= 1) return 1;
  // One tier per factor-of-16 fan-out: 2..16 nodes share a leaf (1 tier),
  // 17..256 add a spine tier, 257..4096 an aggregation tier, and so on.
  int t = 0;
  long long reach = 1;
  while (reach < nodes) {
    reach *= 16;
    ++t;
  }
  return t;
}

void CrashSpec::validate() const {
  auto nonneg = [](double v, const char* name) {
    ACTCOMP_CHECK(std::isfinite(v) && v >= 0.0,
                  "CrashSpec: " << name << " = " << v
                                << " — must be finite and non-negative");
  };
  nonneg(mtbf_ms, "mtbf_ms");
  nonneg(detect_ms, "detect_ms");
  nonneg(restart_ms, "restart_ms");
  ACTCOMP_CHECK(num_stages >= 1, "CrashSpec: num_stages = "
                                     << num_stages << " — must be >= 1");
}

LinkSpec TopologySpec::cross_node(const LinkSpec& inter, int nodes) const {
  if (spine == Spine::kFlat) return inter;
  LinkSpec l = inter;
  l.latency_us = inter.latency_us * static_cast<double>(tiers(nodes));
  if (spine == Spine::kOversubscribed && nodes > 16) {
    // Traffic stays under one leaf switch up to the radix; beyond it the
    // uplinks are the bottleneck.
    l.bandwidth_gb_s = inter.bandwidth_gb_s / oversubscription;
  }
  return l;
}

void ClusterSpec::validate() const {
  auto fail = [](const std::string& msg) {
    throw std::invalid_argument("ClusterSpec: " + msg);
  };
  if (num_nodes < 1) {
    fail("num_nodes must be >= 1, got " + std::to_string(num_nodes));
  }
  if (gpus_per_node < 1) {
    fail("gpus_per_node must be >= 1, got " + std::to_string(gpus_per_node));
  }
  if (!(intra_node.bandwidth_gb_s > 0.0) ||
      !std::isfinite(intra_node.bandwidth_gb_s)) {
    fail("intra_node.bandwidth_gb_s must be positive and finite, got " +
         std::to_string(intra_node.bandwidth_gb_s));
  }
  if (!(inter_node.bandwidth_gb_s > 0.0) ||
      !std::isfinite(inter_node.bandwidth_gb_s)) {
    fail("inter_node.bandwidth_gb_s must be positive and finite, got " +
         std::to_string(inter_node.bandwidth_gb_s));
  }
  if (intra_node.latency_us < 0.0 || inter_node.latency_us < 0.0) {
    fail("link latency_us must be >= 0");
  }
  if (topology.oversubscription < 1.0 ||
      !std::isfinite(topology.oversubscription)) {
    fail("topology.oversubscription must be >= 1, got " +
         std::to_string(topology.oversubscription));
  }
  if (!(gpu.peak_fp16_tflops > 0.0) || !(gpu.mfu > 0.0) || gpu.mfu > 1.0) {
    fail("gpu peak/mfu must satisfy peak > 0 and 0 < mfu <= 1");
  }
}

ClusterSpec ClusterSpec::aws_p3(int num_nodes) {
  ACTCOMP_CHECK(num_nodes >= 1, "need at least one node");
  ClusterSpec c;
  c.name = num_nodes == 1 ? "aws-p3.8xlarge"
                          : std::to_string(num_nodes) + "x-aws-p3.8xlarge";
  c.num_nodes = num_nodes;
  c.gpus_per_node = 4;
  c.has_nvlink = true;
  // Effective collective bandwidth over the hybrid-mesh NVLink fabric.
  // The paper quotes 40 GB/s per link; ring collectives stripe across the
  // parallel links, and ~100 GB/s effective reconciles the paper's
  // TP=4/PP=1 NVLink rows with its TP=1/PP=4 compute-only rows.
  c.intra_node = {.bandwidth_gb_s = 100.0, .latency_us = 8.0};
  c.inter_node = {.bandwidth_gb_s = 1.25, .latency_us = 50.0};  // 10 Gbps
  c.validate();
  return c;
}

ClusterSpec ClusterSpec::local_pcie() {
  ClusterSpec c;
  c.name = "local-4xV100-pcie";
  c.num_nodes = 1;
  c.gpus_per_node = 4;
  c.has_nvlink = false;
  // One shared PCIe bridge: effective 11 GB/s, fitted from Table 4 (see
  // hardware.h header comment).
  c.intra_node = {.bandwidth_gb_s = 11.0, .latency_us = 15.0};
  c.inter_node = {.bandwidth_gb_s = 1.25, .latency_us = 50.0};
  c.validate();
  return c;
}

ClusterSpec ClusterSpec::datacenter(int num_nodes, TopologySpec::Spine spine,
                                    double oversubscription) {
  ClusterSpec c;
  c.name = std::to_string(num_nodes) + "-node-datacenter";
  c.num_nodes = num_nodes;
  c.gpus_per_node = 8;
  c.has_nvlink = true;
  // 8-GPU NVLink island (same effective collective bandwidth calibration as
  // aws_p3) under a 100 GbE leaf uplink (12.5 GB/s).
  c.intra_node = {.bandwidth_gb_s = 100.0, .latency_us = 8.0};
  c.inter_node = {.bandwidth_gb_s = 12.5, .latency_us = 20.0};
  c.topology.spine = spine;
  c.topology.oversubscription = oversubscription;
  c.validate();
  return c;
}

}  // namespace actcomp::sim
