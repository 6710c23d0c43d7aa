// Per-ISA microkernel dispatch table (DESIGN.md §15).
//
// Every hot inner loop in tensor/ and compress/ is a raw-pointer kernel
// behind this table; `active_kernels()` returns the table for the tier
// `core::simd_isa()` currently selects (scalar, AVX2, or AVX-512). The
// per-ISA translation units are compiled with explicit -mavx2/-mavx512f
// flags (never -march=native), so one binary carries every tier and picks
// at runtime — release builds no longer depend on the build host's ISA.
// The table holds only what the library's ops call: the GEMM, the bias
// and mask arithmetic, softmax's scale and shift, GELU, the layernorm
// passes, fp16, the quantizer and Adam's update. An entry only tests reach
// is deleted with its op, since every tier compiles and vets each one.
//
// Every tier's table starts as `generic::table()` (kernels_generic.h): the
// portable loops, compiled in that tier's TU under its own -m flags, so the
// compiler vectorizes them at the tier's width. Its GEMM is gemm_common.h's
// one register tile and driver, instantiated at the tier's vector width for
// every shape. The scalar tier is exactly that table. A SIMD tier then
// assigns only the entries it hand-writes with intrinsics: `row_max`/
// `row_minmax`, the F16C fp16 trio, the quantizer pair, and on AVX-512 the
// lane-per-row `rows_moments`.
//
// Identity contract: every entry produces bytes identical to the scalar
// tier. The mechanics:
//   * The GEMM fuses and nothing else does. Each k step of the GEMM is one
//     correctly rounded fused multiply-add on every tier: the FMA
//     instruction on AVX2 and AVX-512, std::fma on the scalar tier. Every
//     other kernel keeps its documented mul-then-add order: all kernel TUs
//     are -ffp-contract=off, and the intrinsic kernels spell mul-then-add
//     explicitly.
//   * Accumulations keep the scalar order (GEMM walks k ascending per C
//     element; moments accumulate columns ascending with one row per SIMD
//     lane), which is lane-count independent.
//   * Where an ISA genuinely cannot match scalar semantics bit-for-bit —
//     F16C on NaN payloads, min/max ties against ±0 — the SIMD kernel
//     detects the case and falls back to the generic loop for that block.
// Kernels that take a [lo, hi) range operate on the caller's parallel_for
// chunk, so chunk boundaries (and thus 1-vs-N-thread identity) are owned
// by the caller exactly as before.
#pragma once

#include <cstdint>

namespace actcomp::tensor::kernels {

// One Adam/AdamW step's scalars: the learning rate, the moment decays,
// eps, the decoupled weight decay and the two bias corrections
// 1 - beta^t.
struct AdamStep {
  float lr, beta1, beta2, eps, weight_decay, bc1, bc2;
};

struct KernelTable {
  // Tier this table implements ("scalar" | "avx2" | "avx512").
  const char* name;

  // ---- GEMM ----
  // c (m x n) = a (m x k) * b (k x n) through the tier's register tile,
  // one fused multiply-add per k, walking k ascending per C element. A and
  // B take general strides: element (i, j) of A is a[i * rsa + j * csa]
  // and of B b[i * rsb + j * csb], so a transposed operand, or one head's
  // column block of a wider matrix, is read in place. C's rows are
  // ldc >= n apart, and columns [n, ldc) are never touched. For k >= 1
  // every C element is written from +0 and c's prior contents are never
  // read; for k == 0 c is left untouched. Above kSimpleGemmFlops it packs B into panels and
  // parallelizes rows. At or below it runs on the caller's thread and never
  // enters the pool, so callers may run it inside their own parallel_for:
  // it reads B in place when csb == 1 and packs B serially otherwise.
  void (*gemm_into)(const float* a, int64_t rsa, int64_t csa, const float* b,
                    int64_t rsb, int64_t csb, float* c, int64_t ldc, int64_t m,
                    int64_t k, int64_t n);

  // ---- elementwise (i in [lo, hi); b index is i % nb, nb == len(a) for
  // same-shape operands) ----
  void (*ew_add)(const float* a, const float* b, float* out, int64_t lo,
                 int64_t hi, int64_t nb);
  void (*ew_sub)(const float* a, const float* b, float* out, int64_t lo,
                 int64_t hi, int64_t nb);
  void (*ew_mul)(const float* a, const float* b, float* out, int64_t lo,
                 int64_t hi, int64_t nb);
  void (*ew_mul_scalar)(const float* a, float s, float* out, int64_t lo,
                        int64_t hi);
  void (*ew_sub_scalar)(const float* a, float s, float* out, int64_t lo,
                        int64_t hi);
  void (*ew_scale)(float* x, float s, int64_t lo, int64_t hi);  // x[i] *= s
  // GELU (tanh form) and its derivative. Every tier points at the one
  // polynomial in kernels_generic.h, compiled under its own -m flags.
  void (*ew_gelu)(const float* a, float* out, int64_t lo, int64_t hi);
  void (*ew_gelu_grad)(const float* a, float* out, int64_t lo, int64_t hi);

  // ---- row reductions ----
  // max over x[0..n) with the scalar tie/NaN semantics (-inf for n == 0).
  float (*row_max)(const float* x, int64_t n);
  // min/max over x[0..n), n >= 1, matching the serial first-wins scan.
  void (*row_minmax)(const float* x, int64_t n, float* lo_out, float* hi_out);
  // Per-row mean / 1/sqrt(var + eps) for rows [r0, r1): double
  // accumulation, columns ascending (the layernorm statistics pass).
  void (*rows_moments)(const float* x, int64_t r0, int64_t r1, int64_t cols,
                       float eps, float* mean, float* rstd);
  // out[r, c] = (x[r, c] - mean[r]) * rstd[r] for rows [r0, r1).
  void (*ln_xhat)(const float* x, const float* mean, const float* rstd,
                  float* out, int64_t r0, int64_t r1, int64_t cols);

  // ---- fp16 (IEEE binary16; identical to tensor/fp16.h bit for bit,
  // including round-to-nearest-even, overflow to inf, and the canonical
  // NaN the software converter emits) ----
  void (*fp16_encode)(const float* in, uint16_t* out, int64_t n);
  void (*fp16_decode)(const uint16_t* in, float* out, int64_t n);
  void (*fp16_round_trip)(const float* in, float* out, int64_t n);

  // ---- quantization (affine, per row; scale > 0) ----
  // q[c] = clamp(lround((row[c] - lo) / scale), 0, levels - 1).
  void (*quant_quantize_row)(const float* row, int64_t cols, float lo,
                             float scale, int levels, uint8_t* q);
  // out[c] = lo + q[c] * scale.
  void (*quant_dequantize_row)(const uint8_t* q, int64_t cols, float lo,
                               float scale, float* out);

  // ---- optimizer ----
  // One Adam step on elements [lo, hi), each in this order:
  // m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g, then
  // w -= lr * ((m/bc1) / (sqrt(v/bc2) + eps) + wd*w).
  void (*adam_update)(float* w, const float* g, float* m, float* v, int64_t lo,
                      int64_t hi, AdamStep s);
};

/// The table for the currently active tier (core::simd_isa()).
const KernelTable& active_kernels();

/// The table for a specific tier index (0 = scalar, 1 = avx2, 2 = avx512);
/// tiers the build or host lacks alias the widest available narrower tier.
const KernelTable& kernels_for_tier(int tier);

}  // namespace actcomp::tensor::kernels
