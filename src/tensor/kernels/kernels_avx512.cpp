// AVX-512 kernel tier. Compiled with -mavx512f -mavx2 -mf16c -mfma -O3
// -ffp-contract=off; selected at runtime only when cpuid reports AVX-512F
// on top of the AVX2 tier's features (core/simd.cpp). Foundation
// instructions only — no BW/DQ/VL — so the 16-bit lane work (fp16 NaN
// screening, quantizer byte packing) stays on the 128/256-bit units via the
// shared avx2 implementations, which this TU compiles as its own internal
// copies. Its GEMM is gemm_common.h's VecTile
// at 16-float (zmm) vectors, 8x32, one _mm512_fmadd_ps per k step: 16
// accumulators, 2 B columns and 1 broadcast use 19 of the 32 zmm registers.
#include "tensor/kernels/tiers.h"

#if defined(__AVX512F__) && defined(__AVX2__) && defined(__F16C__) && \
    defined(__FMA__)

#include <immintrin.h>

#include "tensor/kernels/gemm_common.h"
#include "tensor/kernels/kernels_avx2_inl.h"
#include "tensor/kernels/kernels_generic.h"

namespace actcomp::tensor::kernels {
namespace avx512i {

// ---- row reductions ----

// Lane-per-row layernorm statistics: 8 rows per block, one double lane per
// row, columns gathered ascending. Each row's accumulation order is exactly
// the scalar loop's (ascending c, double precision, mul-then-add for the
// variance), so the statistics are bit-identical; div_pd/sqrt_pd and the
// final cvtpd->ps are IEEE-exact single operations.
static inline void rows_moments(const float* x, int64_t r0, int64_t r1,
                                int64_t cols, float eps, float* mean,
                                float* rstd) {
  // Gather offsets are 32-bit lane indices; bail out (unreachably large
  // rows) rather than overflow.
  if (cols <= 0 || cols > (int64_t{1} << 27)) {
    generic::rows_moments(x, r0, r1, cols, eps, mean, rstd);
    return;
  }
  const int c32 = static_cast<int>(cols);
  const __m256i vidx = _mm256_setr_epi32(0, c32, 2 * c32, 3 * c32, 4 * c32,
                                         5 * c32, 6 * c32, 7 * c32);
  const __m512d vcols = _mm512_set1_pd(static_cast<double>(cols));
  const __m512d veps = _mm512_set1_pd(static_cast<double>(eps));
  const __m512d vone = _mm512_set1_pd(1.0);
  int64_t r = r0;
  for (; r + 8 <= r1; r += 8) {
    const float* base = x + r * cols;
    __m512d s = _mm512_setzero_pd();
    for (int64_t c = 0; c < cols; ++c) {
      const __m256 g = _mm256_i32gather_ps(base + c, vidx, 4);
      s = _mm512_add_pd(s, _mm512_cvtps_pd(g));
    }
    const __m512d m = _mm512_div_pd(s, vcols);
    __m512d var = _mm512_setzero_pd();
    for (int64_t c = 0; c < cols; ++c) {
      const __m256 g = _mm256_i32gather_ps(base + c, vidx, 4);
      const __m512d d = _mm512_sub_pd(_mm512_cvtps_pd(g), m);
      var = _mm512_add_pd(var, _mm512_mul_pd(d, d));
    }
    var = _mm512_div_pd(var, vcols);
    const __m512d rs =
        _mm512_div_pd(vone, _mm512_sqrt_pd(_mm512_add_pd(var, veps)));
    _mm256_storeu_ps(mean + r, _mm512_cvtpd_ps(m));
    _mm256_storeu_ps(rstd + r, _mm512_cvtpd_ps(rs));
  }
  if (r < r1) generic::rows_moments(x, r, r1, cols, eps, mean, rstd);
}

// ---- fp16 (zmm-width F16C; same NaN screening as the avx2 tier) ----

static inline void fp16_encode(const float* in, uint16_t* out, int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 v = _mm512_loadu_ps(in + i);
    if (_mm512_cmp_ps_mask(v, v, _CMP_UNORD_Q) != 0) {
      generic::fp16_encode(in + i, out + i, 16);
      continue;
    }
    const __m256i h = _mm512_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), h);
  }
  if (i < n) avx2i::fp16_encode(in + i, out + i, n - i);
}

static inline void fp16_decode(const uint16_t* in, float* out, int64_t n) {
  const __m256i expmask = _mm256_set1_epi16(0x7FFF);
  const __m256i inf16 = _mm256_set1_epi16(0x7C00);
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i h =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    const __m256i isnan =
        _mm256_cmpgt_epi16(_mm256_and_si256(h, expmask), inf16);
    if (_mm256_movemask_epi8(isnan) != 0) {
      generic::fp16_decode(in + i, out + i, 16);
      continue;
    }
    _mm512_storeu_ps(out + i, _mm512_cvtph_ps(h));
  }
  if (i < n) avx2i::fp16_decode(in + i, out + i, n - i);
}

}  // namespace avx512i

const KernelTable* avx512_kernels() {
  // The elementwise family and ln_xhat stay generic: this TU's copies
  // vectorize at 512 bits with the same bytes. The min/max scans and the
  // quantizer's byte packing keep their 256-bit kernels, which the NaN/±0
  // screening and the byte shuffles already bound. So does the fp16 round
  // trip: 16 lanes beat 8 by under 10% at any size, while encode and decode
  // run 1.3-1.7x faster on the wire path's 8192-element chunks (DESIGN.md
  // §15).
  static const KernelTable table = [] {
    KernelTable t = generic::table("avx512", gemm_into_t<VecTile<16, 8>>);
    t.row_max = avx2i::row_max;
    t.row_minmax = avx2i::row_minmax;
    t.rows_moments = avx512i::rows_moments;
    t.fp16_encode = avx512i::fp16_encode;
    t.fp16_decode = avx512i::fp16_decode;
    t.fp16_round_trip = avx2i::fp16_round_trip;
    t.quant_quantize_row = avx2i::quant_quantize_row;
    t.quant_dequantize_row = avx2i::quant_dequantize_row;
    return t;
  }();
  return &table;
}

}  // namespace actcomp::tensor::kernels

#else  // toolchain/target cannot build this tier

namespace actcomp::tensor::kernels {
const KernelTable* avx512_kernels() { return nullptr; }
}  // namespace actcomp::tensor::kernels

#endif
