// Scalar kernel tier: the portable baseline every wider tier must match
// byte for byte. Compiled with -O3 -ffp-contract=off and NO architecture
// flags, so the binary runs on any x86-64 (or non-x86) host. Its table is
// generic::table() with this TU's GEMM.
//
// The GEMM micro-tile is written in GNU vectors: without an explicit vector
// type GCC's SLP vectorizer gives up on the accumulator. They are 16 bytes
// wide, the width the baseline SSE2 encoding has natively, so the 6x8 tile
// keeps 12 accumulators, 2 B columns and 1 broadcast in the 16 xmm
// registers. 32-byte vectors are split into SSE2 pairs here, and a 5x16
// tile of them needs 20 registers for its accumulators alone: it spilled
// and ran at the seed loop's speed (1.8 GFLOP/s at 512^3, one thread),
// where this tile runs 23, and 22-25 on decode's and attention's small
// shapes (DESIGN.md §10).
#include <cstring>

#include "tensor/kernels/gemm_common.h"
#include "tensor/kernels/kernel_table.h"
#include "tensor/kernels/kernels_generic.h"

namespace actcomp::tensor::kernels {

namespace {

#if defined(__GNUC__) || defined(__clang__)
typedef float v4f __attribute__((vector_size(16)));

struct ScalarGemmPolicy {
  static constexpr int64_t kNR = 8;  // micro-tile cols = packed panel width
  static constexpr int64_t kMR = 6;  // micro-tile rows

  template <int MR, bool FIRST>
  static void micro(const float* __restrict__ a, int64_t lda,
                    const float* __restrict__ b, int64_t ldb,
                    float* __restrict__ c, int64_t ldc, int64_t kc) {
    v4f acc[MR][2];
    for (int r = 0; r < MR; ++r) {
      if (FIRST) {
        acc[r][0] = v4f{};
        acc[r][1] = v4f{};
      } else {
        std::memcpy(&acc[r][0], c + r * ldc, sizeof(v4f));
        std::memcpy(&acc[r][1], c + r * ldc + 4, sizeof(v4f));
      }
    }
    for (int64_t kk = 0; kk < kc; ++kk) {
      v4f b0, b1;
      std::memcpy(&b0, b + kk * ldb, sizeof(v4f));
      std::memcpy(&b1, b + kk * ldb + 4, sizeof(v4f));
      for (int r = 0; r < MR; ++r) {
        const float s = a[r * lda + kk];
        const v4f av = {s, s, s, s};
        acc[r][0] = acc[r][0] + av * b0;
        acc[r][1] = acc[r][1] + av * b1;
      }
    }
    for (int r = 0; r < MR; ++r) {
      std::memcpy(c + r * ldc, &acc[r][0], sizeof(v4f));
      std::memcpy(c + r * ldc + 4, &acc[r][1], sizeof(v4f));
    }
  }
};
#else
struct ScalarGemmPolicy {
  static constexpr int64_t kNR = 8;
  static constexpr int64_t kMR = 6;

  template <int MR, bool FIRST>
  static void micro(const float* a, int64_t lda, const float* b, int64_t ldb,
                    float* c, int64_t ldc, int64_t kc) {
    float acc[MR][kNR];
    for (int r = 0; r < MR; ++r) {
      for (int64_t j = 0; j < kNR; ++j) {
        acc[r][j] = FIRST ? 0.0f : c[r * ldc + j];
      }
    }
    for (int64_t kk = 0; kk < kc; ++kk) {
      const float* bk = b + kk * ldb;
      for (int r = 0; r < MR; ++r) {
        const float av = a[r * lda + kk];
        for (int64_t j = 0; j < kNR; ++j) acc[r][j] += av * bk[j];
      }
    }
    for (int r = 0; r < MR; ++r) {
      for (int64_t j = 0; j < kNR; ++j) c[r * ldc + j] = acc[r][j];
    }
  }
};
#endif

void gemm_into(const float* a, const float* b, float* c, int64_t m, int64_t k,
               int64_t n) {
  gemm_into_t<ScalarGemmPolicy>(a, b, c, m, k, n);
}

}  // namespace

const KernelTable& scalar_kernels() {
  static const KernelTable table = generic::table("scalar", gemm_into);
  return table;
}

}  // namespace actcomp::tensor::kernels
