// The portable kernel loops, and the table every tier starts from
// (DESIGN.md §15). Each loop is one IEEE operation (or one fixed sequence)
// per element in source order and every kernel TU is -ffp-contract=off, so
// a tier's TU that compiles them under its own -m flags vectorizes them at
// its width with the scalar tier's bytes. The row reductions are written
// for that too: the min/max scans as GNU vectors whose lanes keep the
// serial scan's rules, and the layernorm statistics as the serial loops
// over four interleaved rows. Everything here is `static inline` (or a
// `static` template), so each per-ISA TU keeps its own copy; the
// hand-written fp16 and quantizer kernels use the same loops for
// remainders and fallbacks (NaN lanes, out-of-range values).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "tensor/fp16.h"
#include "tensor/kernels/kernel_table.h"

namespace actcomp::tensor::kernels::generic {

// ---- elementwise ----

// Calls body(i0, i1, boff) on the pieces of [lo, hi) split at multiples of
// nb, where b's index wraps to 0; inside a piece it runs contiguously from
// boff, so the body is a plain loop. hi <= nb (same-shape operands) is one
// piece. Only the first piece starts inside b, so one division serves the
// range (one per piece stalled each piece's alias check on the divide).
template <typename Body>
static inline void broadcast_pieces(int64_t lo, int64_t hi, int64_t nb,
                                    Body body) {
  if (hi <= nb) {  // same-shape fast path: i % nb == i on this chunk
    body(lo, hi, lo);
    return;
  }
  int64_t boff = lo % nb;
  for (int64_t i = lo; i < hi; boff = 0) {
    const int64_t end = std::min(hi, i + (nb - boff));
    body(i, end, boff);
    i = end;
  }
}

template <typename F>
static inline void ew_binary(const float* a, const float* b, float* out, int64_t lo,
                             int64_t hi, int64_t nb, F f) {
  broadcast_pieces(lo, hi, nb, [&](int64_t i0, int64_t i1, int64_t boff) {
    for (int64_t i = i0; i < i1; ++i) out[i] = f(a[i], b[boff + (i - i0)]);
  });
}

static inline void ew_add(const float* a, const float* b, float* out, int64_t lo,
                   int64_t hi, int64_t nb) {
  ew_binary(a, b, out, lo, hi, nb, [](float x, float y) { return x + y; });
}
static inline void ew_sub(const float* a, const float* b, float* out, int64_t lo,
                   int64_t hi, int64_t nb) {
  ew_binary(a, b, out, lo, hi, nb, [](float x, float y) { return x - y; });
}
static inline void ew_mul(const float* a, const float* b, float* out, int64_t lo,
                   int64_t hi, int64_t nb) {
  ew_binary(a, b, out, lo, hi, nb, [](float x, float y) { return x * y; });
}

static inline void ew_mul_scalar(const float* a, float s, float* out, int64_t lo,
                          int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) out[i] = a[i] * s;
}
static inline void ew_sub_scalar(const float* a, float s, float* out, int64_t lo,
                          int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) out[i] = a[i] - s;
}
static inline void ew_scale(float* x, float s, int64_t lo, int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) x[i] *= s;
}

// ---- GELU (tanh form) ----
//
// One source for every tier: plain float arithmetic with no libm call and
// no branch, so each tier's TU autovectorizes it at its own width and
// -ffp-contract=off keeps every lane's rounding identical to the scalar
// tier. tanh(u) = (1 - e) / (1 + e) with e = exp(-2|u|) and the sign put
// back; exp is e = 2^k * exp(r), k = round(z / ln2), |r| <= ln2/2, with a
// Chebyshev fit of (exp(r) - 1 - r) / r^2. |u| is clamped to 9 first, where
// e <= 2^-25 and t is exactly 1: that also maps NaN and ±Inf to a finite
// argument, so k always fits an int32 (the float-to-int conversion is
// defined), and the NaN or Inf in x reaches the result through the outer
// arithmetic exactly as it does through libm's tanh.

inline constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
inline constexpr float kGeluA = 0.044715f;

static inline float gelu_tanh(float u) {
  constexpr float kMaxArg = 9.0f;
  constexpr float kLog2e = 1.44269504088896341f;
  constexpr float kLn2Hi = 0.693359375f;  // 9 significant bits: k * kLn2Hi is exact
  constexpr float kLn2Lo = -2.12194440e-4f;
  constexpr float kRound = 12582912.0f;  // 1.5 * 2^23: (y + kRound) - kRound rounds y
  // min(|u|, 9) on the bit patterns: for a cleared sign bit the integer
  // order is the float order, with +Inf and every NaN above 9. (A float
  // select here lets GCC split the loop on the clamp, which stops the
  // vectorizer below AVX-512.)
  const int32_t au = std::bit_cast<int32_t>(std::fabs(u));
  const float v = std::bit_cast<float>(std::min(au, std::bit_cast<int32_t>(kMaxArg)));
  const float z = -2.0f * v;  // [-18, 0]
  const float k = (z * kLog2e + kRound) - kRound;  // integral, [-26, 0]
  const float r = (z - k * kLn2Hi) - k * kLn2Lo;
  const float q =
      0.5f + r * (0.16666576f + r * (0.041666554f + r * (0.0083632594f + r * 0.0013926284f)));
  const float scale = std::bit_cast<float>((static_cast<int32_t>(k) + 127) << 23);  // 2^k
  const float e = (1.0f + (r + r * r * q)) * scale;
  return std::copysign((1.0f - e) / (1.0f + e), u);
}

static inline void ew_gelu(const float* a, float* out, int64_t lo, int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) {
    const float x = a[i];
    const float t = gelu_tanh(kGeluC * (x + kGeluA * x * x * x));
    out[i] = 0.5f * x * (1.0f + t);
  }
}

static inline void ew_gelu_grad(const float* a, float* out, int64_t lo, int64_t hi) {
  for (int64_t i = lo; i < hi; ++i) {
    const float x = a[i];
    const float t = gelu_tanh(kGeluC * (x + kGeluA * x * x * x));
    const float du = kGeluC * (1.0f + 3.0f * kGeluA * x * x);
    out[i] = 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du;
  }
}

// ---- row reductions ----
//
// The serial scans define row_max and row_minmax. The table's entries run
// kScanLanes accumulators over the row's full blocks, then fold the lanes
// and the tail in the serial order. Each lane keeps std::max's (std::min's)
// rule, acc < v ? v : acc, so a NaN never enters an accumulator that is not
// NaN already, and of equal values the first is kept. Equal floats are
// bit-identical except ±0, so the lanes can differ from the serial scan only
// in the sign of a zero result, and a zero result is rescanned serially.

// 8 lanes in the AVX2 and AVX-512 TUs (16 ran 1.4-2.2x slower on softmax's
// 33-47-float decode rows), 4 in the scalar TU. Internal linkage: the value
// differs per TU.
#if defined(__AVX2__)
constexpr int kScanLanes = 8;
#else
constexpr int kScanLanes = 4;
#endif
typedef float scan_vec __attribute__((vector_size(4 * kScanLanes)));
// The same vector at float alignment, free to alias floats: rows start at
// any float offset.
typedef float scan_vec_u
    __attribute__((vector_size(4 * kScanLanes), aligned(4), may_alias));

static inline float row_max_serial(const float* x, int64_t n) {
  float m = -std::numeric_limits<float>::infinity();
  for (int64_t c = 0; c < n; ++c) m = std::max(m, x[c]);
  return m;
}

static inline void row_minmax_serial(const float* x, int64_t n, float* lo_out,
                                     float* hi_out) {
  float lo = x[0], hi = x[0];
  for (int64_t c = 1; c < n; ++c) {
    lo = std::min(lo, x[c]);
    hi = std::max(hi, x[c]);
  }
  *lo_out = lo;
  *hi_out = hi;
}

// Folds x[0, n) into hi by std::max's rule and, when MIN, into lo by
// std::min's. Every lane starts from the incoming value, so an incoming NaN
// stays the result, as it does in the serial scan.
template <bool MIN>
static inline void minmax_scan(const float* x, int64_t n, float& lo, float& hi) {
  scan_vec vlo{}, vhi{};
  for (int l = 0; l < kScanLanes; ++l) {
    vlo[l] = lo;
    vhi[l] = hi;
  }
  int64_t c = 0;
  // Two blocks per loop branch: on 64-96-float rows this ran 10-25% faster
  // than one, whose short loop also slowed wherever its branch straddled a
  // 32-byte boundary.
#pragma GCC unroll 2
  for (; c + kScanLanes <= n; c += kScanLanes) {
    const scan_vec v = *reinterpret_cast<const scan_vec_u*>(x + c);
    if constexpr (MIN) vlo = v < vlo ? v : vlo;
    vhi = vhi < v ? v : vhi;
  }
  for (int l = 0; l < kScanLanes; ++l) {
    if constexpr (MIN) lo = std::min(lo, vlo[l]);
    hi = std::max(hi, vhi[l]);
  }
  for (; c < n; ++c) {
    if constexpr (MIN) lo = std::min(lo, x[c]);
    hi = std::max(hi, x[c]);
  }
}

static inline float row_max(const float* x, int64_t n) {
  float lo = 0.0f, hi = -std::numeric_limits<float>::infinity();
  minmax_scan<false>(x, n, lo, hi);
  return hi == 0.0f ? row_max_serial(x, n) : hi;
}

static inline void row_minmax(const float* x, int64_t n, float* lo_out,
                              float* hi_out) {
  float lo = x[0], hi = x[0];
  minmax_scan<true>(x, n, lo, hi);
  if (lo == 0.0f || hi == 0.0f) {
    row_minmax_serial(x, n, lo_out, hi_out);
    return;
  }
  *lo_out = lo;
  *hi_out = hi;
}

// Layernorm statistics of R consecutive rows from r: the serial double
// loops with the rows interleaved, so each row keeps its ascending-column
// order and its bytes while R chains of adds overlap.
template <int R>
static inline void moments_block(const float* x, int64_t r, int64_t cols,
                                 float eps, float* mean, float* rstd) {
  const float* row = x + r * cols;
  double s[R] = {};
  for (int64_t c = 0; c < cols; ++c) {
    for (int i = 0; i < R; ++i) s[i] += row[i * cols + c];
  }
  double m[R], var[R] = {};
  for (int i = 0; i < R; ++i) m[i] = s[i] / static_cast<double>(cols);
  for (int64_t c = 0; c < cols; ++c) {
    for (int i = 0; i < R; ++i) {
      const double d = row[i * cols + c] - m[i];
      var[i] += d * d;
    }
  }
  for (int i = 0; i < R; ++i) {
    const double v = var[i] / static_cast<double>(cols);
    mean[r + i] = static_cast<float>(m[i]);
    rstd[r + i] = static_cast<float>(1.0 / std::sqrt(v + eps));
  }
}

static inline void rows_moments(const float* x, int64_t r0, int64_t r1, int64_t cols,
                         float eps, float* mean, float* rstd) {
  int64_t r = r0;
  for (; r + 4 <= r1; r += 4) moments_block<4>(x, r, cols, eps, mean, rstd);
  for (; r < r1; ++r) moments_block<1>(x, r, cols, eps, mean, rstd);
}

static inline void ln_xhat(const float* x, const float* mean, const float* rstd,
                    float* out, int64_t r0, int64_t r1, int64_t cols) {
  for (int64_t r = r0; r < r1; ++r) {
    const float m = mean[r];
    const float rs = rstd[r];
    const float* row = x + r * cols;
    float* orow = out + r * cols;
    for (int64_t c = 0; c < cols; ++c) orow[c] = (row[c] - m) * rs;
  }
}

// ---- fp16 ----

static inline void fp16_encode(const float* in, uint16_t* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = fp32_to_fp16_bits(in[i]);
}
static inline void fp16_decode(const uint16_t* in, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = fp16_bits_to_fp32(in[i]);
}
static inline void fp16_round_trip(const float* in, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = fp16_bits_to_fp32(fp32_to_fp16_bits(in[i]));
  }
}

// ---- quantization ----

static inline void quant_quantize_row(const float* row, int64_t cols, float lo,
                               float scale, int levels, uint8_t* q) {
  for (int64_t c = 0; c < cols; ++c) {
    const float normalized = (row[c] - lo) / scale;
    q[c] = static_cast<uint8_t>(std::clamp(std::lround(normalized), 0l,
                                           static_cast<long>(levels - 1)));
  }
}

static inline void quant_dequantize_row(const uint8_t* q, int64_t cols, float lo,
                                 float scale, float* out) {
  for (int64_t c = 0; c < cols; ++c) {
    out[c] = lo + static_cast<float>(q[c]) * scale;
  }
}

// ---- optimizer ----

// std::sqrt vectorizes only because every kernel TU is -fno-math-errno.
static inline void adam_update(float* w, const float* g, float* m, float* v,
                               int64_t lo, int64_t hi, AdamStep s) {
  for (int64_t i = lo; i < hi; ++i) {
    m[i] = s.beta1 * m[i] + (1.0f - s.beta1) * g[i];
    v[i] = s.beta2 * v[i] + (1.0f - s.beta2) * g[i] * g[i];
    const float mhat = m[i] / s.bc1;
    const float vhat = v[i] / s.bc2;
    w[i] -= s.lr * (mhat / (std::sqrt(vhat) + s.eps) + s.weight_decay * w[i]);
  }
}

// ---- the table ----

// Every entry points at this TU's copy of the loops above; a SIMD tier
// starts from this table and assigns only its hand-written fp16 and
// quantizer entries.
static inline KernelTable table(const char* name,
                                decltype(KernelTable::gemm_into) gemm_into) {
  return KernelTable{
      .name = name,
      .gemm_into = gemm_into,
      .ew_add = ew_add,
      .ew_sub = ew_sub,
      .ew_mul = ew_mul,
      .ew_mul_scalar = ew_mul_scalar,
      .ew_sub_scalar = ew_sub_scalar,
      .ew_scale = ew_scale,
      .ew_gelu = ew_gelu,
      .ew_gelu_grad = ew_gelu_grad,
      .row_max = row_max,
      .row_minmax = row_minmax,
      .rows_moments = rows_moments,
      .ln_xhat = ln_xhat,
      .fp16_encode = fp16_encode,
      .fp16_decode = fp16_decode,
      .fp16_round_trip = fp16_round_trip,
      .quant_quantize_row = quant_quantize_row,
      .quant_dequantize_row = quant_dequantize_row,
      .adam_update = adam_update,
  };
}

}  // namespace actcomp::tensor::kernels::generic
