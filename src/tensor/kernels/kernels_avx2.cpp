// AVX2 kernel tier. Compiled with -mavx2 -mf16c -O3 -ffp-contract=off;
// selected at runtime only when cpuid reports both features (core/simd.cpp),
// so the EVEX-free 256-bit code here never executes on a narrower host.
#include "tensor/kernels/tiers.h"

#if defined(__AVX2__) && defined(__F16C__)

#include "tensor/kernels/kernels_avx2_inl.h"
#include "tensor/kernels/kernels_generic.h"

namespace actcomp::tensor::kernels {

const KernelTable* avx2_kernels() {
  static const KernelTable table = {
      "avx2",
      avx2i::gemm_into,
      gemm_simple_impl,
      avx2i::ew_add,
      avx2i::ew_sub,
      avx2i::ew_mul,
      avx2i::ew_div,
      avx2i::ew_add_scalar,
      avx2i::ew_mul_scalar,
      avx2i::ew_sub_scalar,
      avx2i::ew_neg,
      avx2i::ew_abs,
      avx2i::ew_sqrt,
      avx2i::ew_relu,
      avx2i::ew_scale,
      avx2i::ew_bias_relu,
      generic::ew_gelu,
      generic::ew_gelu_grad,
      avx2i::row_max,
      avx2i::row_minmax,
      // Double-precision two-pass statistics: 256-bit lanes buy nothing
      // over the compiler's autovectorized scalar loop; the AVX-512 tier
      // has the lane-per-row variant.
      generic::rows_moments,
      avx2i::ln_xhat,
      avx2i::fp16_encode,
      avx2i::fp16_decode,
      avx2i::fp16_round_trip,
      avx2i::quant_quantize_row,
      avx2i::quant_dequantize_row,
  };
  return &table;
}

}  // namespace actcomp::tensor::kernels

#else  // toolchain/target cannot build this tier

namespace actcomp::tensor::kernels {
const KernelTable* avx2_kernels() { return nullptr; }
}  // namespace actcomp::tensor::kernels

#endif
