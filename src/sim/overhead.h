// Per-algorithm message encode/decode cost models.
//
// The paper's central negative result is that most compressors lose to their
// own encoding overhead (Takeaways 1, 3). This model reproduces those
// overheads as functions of element count, calibrated against the paper's
// measured breakdown (Table 4: fine-tuning, TP=2/PP=2, b=32, s=512, h=1024,
// last 12 layers compressed — i.e. 24 compressed tensors of 16.8M elements
// per iteration):
//
//   algorithm   model                                     fit anchor (Table 4)
//   ---------   ---------------------------------------   --------------------
//   AE enc      GEMM 2·numel·c FLOPs at mfu 0.20          A1 enc 2.16 ms
//   AE dec      GEMM 2·numel·c FLOPs at mfu 0.15          A1 dec 3.12 ms
//   Top-K enc   0.17 ns/elem scan + 0.15 ns/kept          T1 70.08, T4 74.88 ms
//   Top-K dec   0.015 ns/elem zero-fill + 1.2 ns/kept     T1 13.68, T4 45.36 ms
//   Rand-K enc  0.048 ns · k^1.7 per tensor (host-side    R1 2 040 ms, R3
//               random.sample, the paper's pathology)     11 499 ms, R4 44 039 ms
//   Rand-K dec  as Top-K dec                              R1 15.84 ms
//   quant enc   0.05 ns/elem (minmax + pack passes)       Q1 20.64 ms
//   quant dec   0.08 ns/elem (unpack + affine)            Q1 32.16 ms
//
// The Random-K exponent 1.7 is a power-law fit to the paper's four R rows;
// it reflects Python's random.sample slowing super-linearly at large k, not
// anything fundamental — set `device_side_randomk` to model a proper
// device-side sampler instead (the ablation in bench/ablation_overhead_model
// shows this flips Random-K's sign).
#pragma once

#include <cstdint>

#include "compress/settings.h"
#include "sim/hardware.h"

namespace actcomp::sim {

/// Achieved fraction of peak for the AE codec GEMMs (encoder, decoder):
/// their code dimension is far too small to fill the tensor cores. The
/// decoder's figure also prices the codec's backward GEMMs.
inline constexpr double kAeEncMfu = 0.20;
inline constexpr double kAeDecMfu = 0.15;

struct OverheadModel {
  GpuSpec gpu;
  bool device_side_randomk = false;
  /// Fixed wall-clock cost per compressed communication point (framework
  /// dispatch, extra kernel launches, collective re-setup). The paper's
  /// enc/dec timer columns do NOT include it — Table 4 reports A1 enc+dec
  /// at ~5.3 ms total, yet Tables 12/14 show AE LOSING ~7 ms at b=8/s=128,
  /// which only a fixed per-point cost outside those timers explains.
  double dispatch_ms = 0.25;

  /// Time to encode one activation tensor of `numel` elements (feature size
  /// `hidden`) under `setting`, in ms. Baseline costs nothing.
  double encode_ms(compress::Setting setting, int64_t numel, int64_t hidden) const;

  /// Time to decode `copies` gathered messages back into a `numel`-element
  /// tensor (copies > 1 models the all-gather fallback, where every TP rank
  /// decodes and reduces all peers' messages).
  double decode_ms(compress::Setting setting, int64_t numel, int64_t hidden,
                   int copies = 1) const;

  /// Extra backward time a compression point adds (AE codec weight/input
  /// gradients; ~0 for straight-through algorithms).
  double backward_extra_ms(compress::Setting setting, int64_t numel,
                           int64_t hidden) const;
};

}  // namespace actcomp::sim
