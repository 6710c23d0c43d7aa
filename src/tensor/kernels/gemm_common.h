// The one GEMM driver, parameterized on a per-ISA micro-tile policy
// (DESIGN.md §10/§15).
//
// A policy supplies:
//   static constexpr int64_t kNR;   // micro-tile columns = packed panel width
//   static constexpr int64_t kMR;   // micro-tile rows
//   template <int MR, bool FIRST>
//   static void micro(const float* a, int64_t lda, const float* b,
//                     int64_t ldb, float* c, int64_t ldc, int64_t kc);
// where b points at a kc x kNR block whose rows are ldb floats apart.
//
// The driver owns everything ISA-independent: the row / k-block / panel
// loop, B packing, and the scalar edge kernel for the final partial-width
// panel. Above kSimpleGemmFlops it packs B into panels (ldb = kNR) and
// splits rows across the pool; at or below it runs the same loop inline on
// the caller's thread, each "panel" pointing straight into B (ldb = n),
// with no packing and no pool. Determinism: every C element is owned by
// one row chunk, starts from +0, and takes its mul-then-add steps in
// ascending k order whatever kNR/kMR the policy picks, so the scalar, AVX2
// and AVX-512 instantiations are bit-identical to each other, to any thread
// count and to the textbook i-k-j loop (no FMA).
//
// Linkage note: each policy struct lives in its TU's anonymous namespace,
// which makes every template instantiation here TU-local. That is
// deliberate — these helpers are compiled under three different -m flag
// sets, and a COMDAT-deduplicated copy built with AVX-512 flags must never
// be linked into the scalar tier (it would SIGILL on a narrower host).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/threadpool.h"

namespace actcomp::tensor::kernels {

inline constexpr int64_t kKC = 512;       // k-block: panel slice stays cache-resident
inline constexpr int64_t kRowGrain = 32;  // rows per parallel chunk
// At or below this many multiply-adds, packing and waking the pool cost
// more than they save: the tile reads B in place, serially.
inline constexpr int64_t kSimpleGemmFlops = 1 << 18;

// Pack b (k x n row-major) into ceil(n/NR) panels. Panel p holds columns
// [p*NR, p*NR + NR) for every k row, contiguous, zero-padded on the right
// edge so the edge kernel can run a partial panel at full width.
template <class P>
std::vector<float> pack_b_panels(const float* b, int64_t k, int64_t n) {
  constexpr int64_t NR = P::kNR;
  const int64_t npanels = (n + NR - 1) / NR;
  std::vector<float> bp(static_cast<size_t>(npanels * k * NR));
  core::parallel_for(0, npanels, 1, [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
      const int64_t j0 = p * NR;
      const int64_t w = std::min(NR, n - j0);
      float* dst = bp.data() + p * k * NR;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float* src = b + kk * n + j0;
        for (int64_t j = 0; j < w; ++j) dst[j] = src[j];
        for (int64_t j = w; j < NR; ++j) dst[j] = 0.0f;
        dst += NR;
      }
    }
  });
  return bp;
}

// Right-edge variant for the final panel when n % NR != 0: same k order,
// but C loads/stores are guarded by the live width w so the kernel never
// touches memory past the row end. A packed panel (PADDED) is zero-padded
// to NR columns, so the kernel runs all NR of them at a compile-time width
// that keeps the accumulators in registers. In place it loads only the w
// live columns, so no read runs past B's last row. Scalar is fine here —
// the edge covers at most NR-1 of n columns.
template <class P, int MR, bool PADDED>
void gemm_micro_edge(const float* a, int64_t lda, const float* b, int64_t ldb,
                     float* c, int64_t ldc, int64_t kc, int64_t w, bool first) {
  constexpr int64_t NR = P::kNR;
  const int64_t cols = PADDED ? NR : w;
  float acc[MR][NR];
  for (int r = 0; r < MR; ++r) {
    for (int64_t j = 0; j < cols; ++j) {
      acc[r][j] = (first || j >= w) ? 0.0f : c[r * ldc + j];
    }
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* bk = b + kk * ldb;
    for (int r = 0; r < MR; ++r) {
      const float av = a[r * lda + kk];
      for (int64_t j = 0; j < cols; ++j) acc[r][j] += av * bk[j];
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int64_t j = 0; j < w; ++j) c[r * ldc + j] = acc[r][j];
  }
}

template <class P, int R>
void micro_dispatch(int64_t mr, bool first, const float* a, int64_t lda,
                    const float* b, int64_t ldb, float* c, int64_t ldc,
                    int64_t kc) {
  if (mr == R) {
    if (first) {
      P::template micro<R, true>(a, lda, b, ldb, c, ldc, kc);
    } else {
      P::template micro<R, false>(a, lda, b, ldb, c, ldc, kc);
    }
    return;
  }
  if constexpr (R > 1) {
    micro_dispatch<P, R - 1>(mr, first, a, lda, b, ldb, c, ldc, kc);
  }
}

template <class P, int R, bool PADDED>
void edge_dispatch(int64_t mr, const float* a, int64_t lda, const float* b,
                   int64_t ldb, float* c, int64_t ldc, int64_t kc, int64_t w,
                   bool first) {
  if (mr == R) {
    gemm_micro_edge<P, R, PADDED>(a, lda, b, ldb, c, ldc, kc, w, first);
    return;
  }
  if constexpr (R > 1) {
    edge_dispatch<P, R - 1, PADDED>(mr, a, lda, b, ldb, c, ldc, kc, w, first);
  }
}

// c (m x n, zero-initialized) += a (m x k) * b (k x n).
template <class P>
void gemm_into_t(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n) {
  if (m == 0 || n == 0 || k == 0) return;
  constexpr int64_t NR = P::kNR;
  constexpr int MR = static_cast<int>(P::kMR);
  const bool in_place = m * n * k <= kSimpleGemmFlops;
  std::vector<float> bp;
  if (!in_place) bp = pack_b_panels<P>(b, k, n);
  const int64_t ldb = in_place ? n : NR;
  const int64_t npanels = (n + NR - 1) / NR;
  const auto rows = [&](int64_t r0, int64_t r1) {
    for (int64_t kc0 = 0; kc0 < k; kc0 += kKC) {
      const int64_t kc = std::min(kKC, k - kc0);
      for (int64_t p = 0; p < npanels; ++p) {
        const int64_t j0 = p * NR;
        const int64_t w = std::min(NR, n - j0);
        const float* panel = in_place ? b + kc0 * n + j0
                                      : bp.data() + p * k * NR + kc0 * NR;
        for (int64_t i = r0; i < r1; i += MR) {
          const int64_t mr = std::min<int64_t>(MR, r1 - i);
          const float* ai = a + i * k + kc0;
          float* ci = c + i * n + j0;
          if (w == NR) {
            micro_dispatch<P, MR>(mr, kc0 == 0, ai, k, panel, ldb, ci, n, kc);
          } else if (in_place) {
            edge_dispatch<P, MR, false>(mr, ai, k, panel, ldb, ci, n, kc, w,
                                        kc0 == 0);
          } else {
            edge_dispatch<P, MR, true>(mr, ai, k, panel, ldb, ci, n, kc, w,
                                       kc0 == 0);
          }
        }
      }
    }
  };
  if (in_place) {
    rows(0, m);
  } else {
    core::parallel_for(0, m, kRowGrain, rows);
  }
}

}  // namespace actcomp::tensor::kernels
