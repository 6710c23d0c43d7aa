// AVX-512 kernel tier. Compiled with -mavx512f -mavx2 -mf16c -mfma -O3
// -ffp-contract=off; selected at runtime only when cpuid reports AVX-512F
// on top of the AVX2 tier's features (core/simd.cpp). Foundation
// instructions only — no BW/DQ/VL. It hand-writes only fp16 encode and
// decode at zmm width; the 16-bit lane work (the fp16 round trip's NaN
// screening, the quantizer's byte packing) stays on the 128/256-bit units
// via the shared avx2 implementations, which this TU compiles as its own
// internal copies. Its GEMM is gemm_common.h's VecTile at 16-float (zmm)
// vectors, 8x32, one _mm512_fmadd_ps per k step: 16 accumulators, 2 B
// columns and 1 broadcast use 19 of the 32 zmm registers. The row
// reductions are the generic ones: 8-lane min/max scans and layernorm
// statistics over four interleaved rows, which ran faster here than the
// gather kernel that gave each row a zmm lane.
#include "tensor/kernels/tiers.h"

#if defined(__AVX512F__) && defined(__AVX2__) && defined(__F16C__) && \
    defined(__FMA__)

#include <immintrin.h>

#include "tensor/kernels/gemm_common.h"
#include "tensor/kernels/kernels_avx2_inl.h"
#include "tensor/kernels/kernels_generic.h"

namespace actcomp::tensor::kernels {
namespace avx512i {

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
  // Everything but the fp16 trio and the quantizer pair stays generic: this
  // TU's copies of the elementwise loops vectorize at 512 bits with the same
  // bytes, and its min/max scans run 8 lanes wide. The quantizer's byte
  // packing keeps its 256-bit kernels, which the byte shuffles already
  // bound. So does the fp16 round trip: 16 lanes beat 8 by under 10% at any
  // size, while encode and decode run 1.3-1.7x faster on the wire path's
  // 8192-element chunks (DESIGN.md §15).
  static const KernelTable table = [] {
    KernelTable t = generic::table("avx512", gemm_into_t<VecTile<16, 8>>);
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
