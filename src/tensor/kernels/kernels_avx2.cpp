// AVX2 kernel tier. Compiled with -mavx2 -mf16c -mfma -O3
// -ffp-contract=off; selected at runtime only when cpuid reports all three
// features (core/simd.cpp), so the EVEX-free 256-bit code here never
// executes on a narrower host. Its GEMM is gemm_common.h's VecTile at
// 8-float (ymm) vectors, 5x16, one _mm256_fmadd_ps per k step: 10
// accumulators, 2 B columns and 1 broadcast stay inside the 16-register
// file. Its only hand-written entries are kernels_avx2_inl.h's F16C fp16
// trio and quantizer pair.
#include "tensor/kernels/tiers.h"

#if defined(__AVX2__) && defined(__F16C__) && defined(__FMA__)

#include "tensor/kernels/gemm_common.h"
#include "tensor/kernels/kernels_avx2_inl.h"
#include "tensor/kernels/kernels_generic.h"

namespace actcomp::tensor::kernels {

const KernelTable* avx2_kernels() {
  // Everything but the fp16 trio and the quantizer pair stays generic: this
  // TU's copies of the elementwise loops and the min/max scans run at 256
  // bits with the same bytes.
  static const KernelTable table = [] {
    KernelTable t = generic::table("avx2", gemm_into_t<VecTile<8, 5>>);
    t.fp16_encode = avx2i::fp16_encode;
    t.fp16_decode = avx2i::fp16_decode;
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
const KernelTable* avx2_kernels() { return nullptr; }
}  // namespace actcomp::tensor::kernels

#endif
