// Scalar kernel tier: the portable baseline every wider tier must match
// byte for byte. Compiled with -O3 -ffp-contract=off and NO architecture
// flags, so the binary runs on any x86-64 (or non-x86) host. Its table is
// generic::table() with this TU's GEMM.
//
// The GEMM micro-kernel keeps the GNU vector extension tile from the
// pre-dispatch ops.cpp: without an explicit vector type GCC's SLP
// vectorizer gives up on the accumulator and the kernel runs ~7x slower
// than the streaming loop it replaces. With no -m flags this compiles to
// the baseline SSE2 encoding.
#include <cstring>

#include "tensor/kernels/gemm_common.h"
#include "tensor/kernels/kernel_table.h"
#include "tensor/kernels/kernels_generic.h"

namespace actcomp::tensor::kernels {

namespace {

#if defined(__GNUC__) || defined(__clang__)
typedef float v8f __attribute__((vector_size(32)));

struct ScalarGemmPolicy {
  static constexpr int64_t kNR = 16;  // micro-tile cols = packed panel width
  static constexpr int64_t kMR = 5;   // micro-tile rows

  template <int MR, bool FIRST>
  static void micro(const float* __restrict__ a, int64_t lda,
                    const float* __restrict__ panel, float* __restrict__ c,
                    int64_t ldc, int64_t kc) {
    v8f acc[MR][2];
    for (int r = 0; r < MR; ++r) {
      if (FIRST) {
        acc[r][0] = v8f{};
        acc[r][1] = v8f{};
      } else {
        std::memcpy(&acc[r][0], c + r * ldc, sizeof(v8f));
        std::memcpy(&acc[r][1], c + r * ldc + 8, sizeof(v8f));
      }
    }
    for (int64_t kk = 0; kk < kc; ++kk) {
      v8f b0, b1;
      std::memcpy(&b0, panel + kk * kNR, sizeof(v8f));
      std::memcpy(&b1, panel + kk * kNR + 8, sizeof(v8f));
      for (int r = 0; r < MR; ++r) {
        const float s = a[r * lda + kk];
        const v8f av = {s, s, s, s, s, s, s, s};
        acc[r][0] = acc[r][0] + av * b0;
        acc[r][1] = acc[r][1] + av * b1;
      }
    }
    for (int r = 0; r < MR; ++r) {
      std::memcpy(c + r * ldc, &acc[r][0], sizeof(v8f));
      std::memcpy(c + r * ldc + 8, &acc[r][1], sizeof(v8f));
    }
  }
};
#else
struct ScalarGemmPolicy {
  static constexpr int64_t kNR = 16;
  static constexpr int64_t kMR = 5;

  template <int MR, bool FIRST>
  static void micro(const float* a, int64_t lda, const float* panel, float* c,
                    int64_t ldc, int64_t kc) {
    float acc[MR][kNR];
    for (int r = 0; r < MR; ++r) {
      for (int64_t j = 0; j < kNR; ++j) {
        acc[r][j] = FIRST ? 0.0f : c[r * ldc + j];
      }
    }
    for (int64_t kk = 0; kk < kc; ++kk) {
      const float* bk = panel + kk * kNR;
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
