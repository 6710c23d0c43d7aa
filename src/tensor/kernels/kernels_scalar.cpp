// Scalar kernel tier: the portable baseline every wider tier must match
// byte for byte. Compiled with -O3 -ffp-contract=off -fno-math-errno and NO
// architecture flags, so the binary runs on any x86-64 (or non-x86) host.
// Its table is generic::table() with the shared GEMM tile at 4-float
// vectors, 6x8.
//
// Without -mfma the tile's fused step is a std::fma call per lane: glibc's
// fmaf, about 3 ns each. So this tier's GEMM runs at 0.6-0.7 GFLOP/s on one
// thread, against 14-22 when it multiplied and added apart (DESIGN.md §10).
// Only tests and hosts without AVX2 and FMA run it.
#include "tensor/kernels/gemm_common.h"
#include "tensor/kernels/kernel_table.h"
#include "tensor/kernels/kernels_generic.h"

namespace actcomp::tensor::kernels {

const KernelTable& scalar_kernels() {
  static const KernelTable table =
      generic::table("scalar", gemm_into_t<VecTile<4, 6>>);
  return table;
}

}  // namespace actcomp::tensor::kernels
