// 256-bit AVX2 + F16C kernels: the entries the avx2 tier hand-writes on top
// of generic::table() — the fp16 trio and the quantizer pair. The avx512 TU
// includes this header too and keeps the quantizer pair, the fp16 round trip
// and the fp16 remainders at 256 bits. Everything else has no intrinsic
// version: gemm_common.h's VecTile, the generic loops and the generic row
// reductions compile under each tier's -m flags at that tier's width with
// the same bytes.
//
// Only include from a TU compiled with -mavx2 -mf16c (or wider). Everything
// here is `static`: these functions exist in TUs compiled under *different*
// -m flag sets, and a COMDAT-deduplicated copy encoded with AVX-512 must
// never be linked into a narrower tier — it would SIGILL on an AVX2-only
// host.
//
// Identity rules applied throughout (see kernel_table.h):
//   * mul-then-add spelled explicitly, no FMA intrinsics (only the GEMM
//     tile fuses);
//   * remainders run the generic loop (or its exact expression);
//   * semantic gaps (NaN payloads through F16C, non-finite quantizer
//     inputs) are detected per block and routed to the generic code.
#pragma once

#include <immintrin.h>

#include <cstdint>

#include "tensor/fp16.h"
#include "tensor/kernels/kernels_generic.h"

namespace actcomp::tensor::kernels::avx2i {

// ---- fp16 via F16C ----
//
// vcvtps2ph (RNE) and vcvtph2ps agree with the software converter for every
// non-NaN input, including overflow-to-inf and subnormals (default MXCSR).
// NaNs diverge (the hardware preserves payload bits; the software converter
// emits a canonical quiet NaN), so any block containing a NaN lane is
// converted by the generic code instead.

static inline void fp16_encode(const float* in, uint16_t* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(in + i);
    if (_mm256_movemask_ps(_mm256_cmp_ps(v, v, _CMP_UNORD_Q)) != 0) {
      generic::fp16_encode(in + i, out + i, 8);
      continue;
    }
    const __m128i h = _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), h);
  }
  if (i < n) generic::fp16_encode(in + i, out + i, n - i);
}

static inline void fp16_decode(const uint16_t* in, float* out, int64_t n) {
  // An fp16 NaN has (bits & 0x7FFF) > 0x7C00; masked values are <= 0x7FFF,
  // so the signed 16-bit compare is safe.
  const __m128i expmask = _mm_set1_epi16(0x7FFF);
  const __m128i inf16 = _mm_set1_epi16(0x7C00);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i));
    const __m128i isnan =
        _mm_cmpgt_epi16(_mm_and_si128(h, expmask), inf16);
    if (_mm_movemask_epi8(isnan) != 0) {
      generic::fp16_decode(in + i, out + i, 8);
      continue;
    }
    _mm256_storeu_ps(out + i, _mm256_cvtph_ps(h));
  }
  if (i < n) generic::fp16_decode(in + i, out + i, n - i);
}

static inline void fp16_round_trip(const float* in, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(in + i);
    if (_mm256_movemask_ps(_mm256_cmp_ps(v, v, _CMP_UNORD_Q)) != 0) {
      generic::fp16_round_trip(in + i, out + i, 8);
      continue;
    }
    // Encoding a non-NaN never yields NaN bits (inf stays 0x7C00), so the
    // decode side needs no second check.
    const __m128i h = _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT);
    _mm256_storeu_ps(out + i, _mm256_cvtph_ps(h));
  }
  if (i < n) generic::fp16_round_trip(in + i, out + i, n - i);
}

// ---- quantization ----
//
// Scalar reference: q = clamp(lround((x - lo) / scale), 0, levels-1), i.e.
// round-half-AWAY-from-zero. cvtps2dq rounds half to even, so after the
// high clamp (which also keeps the conversion in int32 range) a lane whose
// remainder v - q is exactly +0.5 was rounded down and gets +1; the final
// max(q, 0) then matches the low clamp — negative halfway lanes land <= 0
// either way. v - (float)q is exact (Sterbenz / q == 0), so the halfway
// test is precise. Non-finite v (NaN, or inf from scale == 0) would hit
// lround's unspecified behavior in the scalar path; those blocks — plus
// anything with |v| >= 2^31, unreachable for real row params — fall back so
// the bytes match whatever the host libm does.

static inline void quant_quantize_row(const float* row, int64_t cols,
                                      float lo, float scale, int levels,
                                      uint8_t* q) {
  const __m256 vlo = _mm256_set1_ps(lo);
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 vmaxq = _mm256_set1_ps(static_cast<float>(levels - 1));
  const __m256 vhalf = _mm256_set1_ps(0.5f);
  const __m256 vbig = _mm256_set1_ps(2147483648.0f);  // 2^31
  const __m256 signmask = _mm256_set1_ps(-0.0f);
  int64_t c = 0;
  for (; c + 8 <= cols; c += 8) {
    const __m256 v = _mm256_div_ps(
        _mm256_sub_ps(_mm256_loadu_ps(row + c), vlo), vscale);
    // NLT_UQ: true when |v| >= 2^31 or v is NaN.
    const __m256 bad =
        _mm256_cmp_ps(_mm256_andnot_ps(signmask, v), vbig, _CMP_NLT_UQ);
    if (_mm256_movemask_ps(bad) != 0) {
      generic::quant_quantize_row(row + c, 8, lo, scale, levels, q + c);
      continue;
    }
    const __m256 vc = _mm256_min_ps(v, vmaxq);  // high clamp before rounding
    __m256i qi = _mm256_cvtps_epi32(vc);        // RNE
    const __m256 rem = _mm256_sub_ps(vc, _mm256_cvtepi32_ps(qi));
    const __m256 up = _mm256_cmp_ps(rem, vhalf, _CMP_EQ_OQ);
    // Mask lanes are -1; subtracting the mask adds 1 where rem == 0.5.
    qi = _mm256_sub_epi32(qi, _mm256_castps_si256(up));
    qi = _mm256_max_epi32(qi, _mm256_setzero_si256());  // low clamp
    const __m128i p16 = _mm_packus_epi32(_mm256_castsi256_si128(qi),
                                         _mm256_extracti128_si256(qi, 1));
    const __m128i p8 = _mm_packus_epi16(p16, p16);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(q + c), p8);
  }
  if (c < cols) {
    generic::quant_quantize_row(row + c, cols - c, lo, scale, levels, q + c);
  }
}

static inline void quant_dequantize_row(const uint8_t* q, int64_t cols,
                                        float lo, float scale, float* out) {
  const __m256 vlo = _mm256_set1_ps(lo);
  const __m256 vscale = _mm256_set1_ps(scale);
  int64_t c = 0;
  for (; c + 8 <= cols; c += 8) {
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + c));
    const __m256 qf = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes));
    _mm256_storeu_ps(out + c,
                     _mm256_add_ps(vlo, _mm256_mul_ps(qf, vscale)));
  }
  if (c < cols) generic::quant_dequantize_row(q + c, cols - c, lo, scale,
                                              out + c);
}

}  // namespace actcomp::tensor::kernels::avx2i
