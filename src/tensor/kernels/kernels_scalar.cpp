// Scalar kernel tier: the portable baseline every wider tier must match
// byte for byte. Compiled with -O3 -ffp-contract=off and NO architecture
// flags, so the binary runs on any x86-64 (or non-x86) host. Its table is
// generic::table() with the shared GEMM tile at 4-float vectors.
//
// 16 bytes is the width the baseline SSE2 encoding has natively: the 6x8
// tile keeps 12 accumulators, 2 B columns and 1 broadcast in the 16 xmm
// registers. Wider GNU vectors are split into SSE2 pairs here, and a 5x16
// tile of 8-float vectors needs 20 registers for its accumulators alone: it
// spilled and ran at the seed loop's speed (1.8 GFLOP/s at 512^3, one
// thread), where this tile runs 23, and 22-25 on decode's and attention's
// small shapes (DESIGN.md §10).
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
