// The one GEMM driver and the one register tile every tier runs
// (DESIGN.md §10/§15).
//
// VecTile<W, MR> is the micro-tile: MR rows of C, each held in two GNU
// vectors of W floats, so the tile is kNR = 2W columns wide. Each k step
// is one fused multiply-add, acc = fma(s, b, acc), into both vectors of a
// row, with that row's A scalar s splatted: _mm512_fmadd_ps at W = 16,
// _mm256_fmadd_ps at W = 8 and std::fma per lane in the scalar TU, which
// has no -mfma. Each tier's TU instantiates the tile at its own vector
// width under its own -m flags: W = 4, MR = 6 (6x8) in the scalar TU (SSE2
// xmm), W = 8, MR = 5 (5x16) in the AVX2 TU (ymm), W = 16, MR = 8 (8x32) in
// the AVX-512 TU (zmm).
//
// gemm_into_t owns everything else: the row / k-block / panel loop, B
// packing and the right edge. Operands are BLIS-style general strides:
// element (i, j) of A is a[i * rsa + j * csa], of B b[i * rsb + j * csb],
// and C's rows are ldc apart, so a transposed operand or one head's column
// block of a wider matrix is only a choice of strides. The tile reads A
// through its strides. Above kSimpleGemmFlops the driver packs B into
// zero-padded kNR-wide panels and splits rows across the pool; at or below
// it runs the same loop inline on the caller's thread and never enters the
// pool: each "panel" points straight into B (ldb = rsb) when B's columns
// are contiguous (csb == 1), and otherwise B is packed serially first.
// Determinism: every C element is owned by one row chunk, starts from +0,
// and takes one correctly rounded fused multiply-add per k in ascending k
// order whatever the tile shape, so the three tiers are bit-identical to
// each other, to any thread count and to the i-k-j loop with std::fma.
//
// Linkage note: VecTile lives in this header's anonymous namespace, which
// makes every template instantiated with it TU-local. That is deliberate —
// these helpers are compiled under three different -m flag sets, and a
// COMDAT-deduplicated copy built with AVX-512 flags must never be linked
// into the scalar tier (it would SIGILL on a narrower host). The
// tensor/KernelLinkage test fails on any weak or unique code symbol in the
// kernel objects.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#if defined(__FMA__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "core/threadpool.h"

namespace actcomp::tensor::kernels {

inline constexpr int64_t kKC = 512;       // k-block: panel slice stays cache-resident
inline constexpr int64_t kRowGrain = 32;  // rows per parallel chunk
// At or below this many multiply-adds, packing and waking the pool cost
// more than they save: the tile reads B in place, serially.
inline constexpr int64_t kSimpleGemmFlops = 1 << 18;

namespace {

template <int W, int MR>
struct VecTile {
  static constexpr int64_t kNR = 2 * W;  // micro-tile cols = packed panel width
  static constexpr int kMR = MR;         // micro-tile rows

  typedef float vec __attribute__((vector_size(4 * W)));
  // The same vector at float alignment, free to alias floats: the view
  // _mm*_loadu_ps reads, since B and C rows start at any float offset.
  typedef float vec_u
      __attribute__((vector_size(4 * W), aligned(4), may_alias));

  // s * b + c in every lane, rounded once: the tier's FMA instruction, or
  // std::fma per lane where the TU has none (the scalar tier). V is always
  // vec; GCC drops a dependent vector_size from a member's signature, so
  // the type is deduced instead.
  template <class V>
  static V fmadd(float s, V b, V c) {
#if defined(__AVX512F__)
    if constexpr (W == 16) return _mm512_fmadd_ps(_mm512_set1_ps(s), b, c);
#endif
#if defined(__FMA__)
    if constexpr (W == 8) return _mm256_fmadd_ps(_mm256_set1_ps(s), b, c);
#endif
    for (int l = 0; l < W; ++l) c[l] = std::fma(s, b[l], c[l]);
    return c;
  }

  // c[0, R) x [0, kNR) from a (R x kc, strides rsa / csa) times b (kc x
  // kNR, rows ldb apart), starting from +0 when FIRST and from c otherwise.
  template <int R, bool FIRST>
  static void micro(const float* a, int64_t rsa, int64_t csa, const float* b,
                    int64_t ldb, float* c, int64_t ldc, int64_t kc) {
    vec acc[R][2];
    for (int r = 0; r < R; ++r) {
      if (FIRST) {
        acc[r][0] = vec{};
        acc[r][1] = vec{};
      } else {
        acc[r][0] = *reinterpret_cast<const vec_u*>(c + r * ldc);
        acc[r][1] = *reinterpret_cast<const vec_u*>(c + r * ldc + W);
      }
    }
    for (int64_t kk = 0; kk < kc; ++kk) {
      const vec b0 = *reinterpret_cast<const vec_u*>(b + kk * ldb);
      const vec b1 = *reinterpret_cast<const vec_u*>(b + kk * ldb + W);
      const float* ak = a + kk * csa;
      for (int r = 0; r < R; ++r) {
        const float s = ak[r * rsa];
        acc[r][0] = fmadd(s, b0, acc[r][0]);
        acc[r][1] = fmadd(s, b1, acc[r][1]);
      }
    }
    for (int r = 0; r < R; ++r) {
      *reinterpret_cast<vec_u*>(c + r * ldc) = acc[r][0];
      *reinterpret_cast<vec_u*>(c + r * ldc + W) = acc[r][1];
    }
  }
};

}  // namespace

// Pack panels [p0, p1) of b (k x n, strides rsb / csb) into bp. Panel p
// holds columns [p*NR, p*NR + NR) for every k row, contiguous, zero-padded
// on the right edge so the tile can run a partial panel at full width.
template <class P>
void pack_b_panels(const float* b, int64_t rsb, int64_t csb, int64_t k,
                   int64_t n, float* bp, int64_t p0, int64_t p1) {
  constexpr int64_t NR = P::kNR;
  for (int64_t p = p0; p < p1; ++p) {
    const int64_t j0 = p * NR;
    const int64_t w = std::min(NR, n - j0);
    float* dst = bp + p * k * NR;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* src = b + kk * rsb + j0 * csb;
      if (csb == 1) {
        std::copy_n(src, w, dst);
      } else {
        for (int64_t j = 0; j < w; ++j) dst[j] = src[j * csb];
      }
      std::fill(dst + w, dst + NR, 0.0f);
      dst += NR;
    }
  }
}

// Right edge read in place, when n % NR != 0: the same k order and the
// same fused step over only the w live columns, so no read runs past B's
// last row or C's row end. Scalar is fine here — the edge covers at most
// NR-1 of n columns.
template <class P, int MR>
void gemm_micro_edge(const float* a, int64_t rsa, int64_t csa, const float* b,
                     int64_t ldb, float* c, int64_t ldc, int64_t kc, int64_t w,
                     bool first) {
  float acc[MR][P::kNR];
  for (int r = 0; r < MR; ++r) {
    for (int64_t j = 0; j < w; ++j) acc[r][j] = first ? 0.0f : c[r * ldc + j];
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* bk = b + kk * ldb;
    const float* ak = a + kk * csa;
    for (int r = 0; r < MR; ++r) {
      const float av = ak[r * rsa];
      for (int64_t j = 0; j < w; ++j) {
        acc[r][j] = std::fma(av, bk[j], acc[r][j]);
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int64_t j = 0; j < w; ++j) c[r * ldc + j] = acc[r][j];
  }
}

template <class P, int R>
void micro_dispatch(int64_t mr, bool first, const float* a, int64_t rsa,
                    int64_t csa, const float* b, int64_t ldb, float* c,
                    int64_t ldc, int64_t kc) {
  if (mr == R) {
    if (first) {
      P::template micro<R, true>(a, rsa, csa, b, ldb, c, ldc, kc);
    } else {
      P::template micro<R, false>(a, rsa, csa, b, ldb, c, ldc, kc);
    }
    return;
  }
  if constexpr (R > 1) {
    micro_dispatch<P, R - 1>(mr, first, a, rsa, csa, b, ldb, c, ldc, kc);
  }
}

template <class P, int R>
void edge_dispatch(int64_t mr, const float* a, int64_t rsa, int64_t csa,
                   const float* b, int64_t ldb, float* c, int64_t ldc,
                   int64_t kc, int64_t w, bool first) {
  if (mr == R) {
    gemm_micro_edge<P, R>(a, rsa, csa, b, ldb, c, ldc, kc, w, first);
    return;
  }
  if constexpr (R > 1) {
    edge_dispatch<P, R - 1>(mr, a, rsa, csa, b, ldb, c, ldc, kc, w, first);
  }
}

// c (m x n, rows ldc apart) = a (m x k) * b (k x n), A and B read through
// their strides. For k >= 1 every C element is written from +0 and c's
// prior contents are never read; for k == 0 c is left untouched. Columns
// [n, ldc) of C's rows are never touched.
template <class P>
void gemm_into_t(const float* a, int64_t rsa, int64_t csa, const float* b,
                 int64_t rsb, int64_t csb, float* c, int64_t ldc, int64_t m,
                 int64_t k, int64_t n) {
  if (m == 0 || n == 0 || k == 0) return;
  constexpr int64_t NR = P::kNR;
  constexpr int MR = P::kMR;
  const bool small = m * n * k <= kSimpleGemmFlops;
  const bool in_place = small && csb == 1;
  const int64_t npanels = (n + NR - 1) / NR;
  std::vector<float> bp;
  if (!in_place) {
    bp.resize(static_cast<size_t>(npanels * k * NR));
    const auto pack = [&](int64_t p0, int64_t p1) {
      pack_b_panels<P>(b, rsb, csb, k, n, bp.data(), p0, p1);
    };
    if (small) {
      pack(0, npanels);
    } else {
      core::parallel_for(0, npanels, 1, pack);
    }
  }
  const int64_t ldb = in_place ? rsb : NR;
  const auto rows = [&](int64_t r0, int64_t r1) {
    for (int64_t kc0 = 0; kc0 < k; kc0 += kKC) {
      const int64_t kc = std::min(kKC, k - kc0);
      for (int64_t p = 0; p < npanels; ++p) {
        const int64_t j0 = p * NR;
        const int64_t w = std::min(NR, n - j0);
        const float* panel = in_place ? b + kc0 * rsb + j0
                                      : bp.data() + p * k * NR + kc0 * NR;
        for (int64_t i = r0; i < r1; i += MR) {
          const int64_t mr = std::min<int64_t>(MR, r1 - i);
          const float* ai = a + i * rsa + kc0 * csa;
          float* ci = c + i * ldc + j0;
          const bool edge = w < NR;
          if (edge && in_place) {
            edge_dispatch<P, MR>(mr, ai, rsa, csa, panel, ldb, ci, ldc, kc, w,
                                 kc0 == 0);
            continue;
          }
          // A packed panel is zero-padded to NR columns, so a partial one
          // runs the tile on an NR-wide block holding C's w live columns.
          // Full and partial panels share one call: a second call site left
          // micro_dispatch out of line, and decode's 4-row GEMMs ran ~20%
          // slower.
          float blk[MR * NR];
          if (edge) {
            std::fill_n(blk, MR * NR, 0.0f);
            for (int64_t r = 0; kc0 != 0 && r < mr; ++r) {
              std::copy_n(ci + r * ldc, w, blk + r * NR);
            }
          }
          micro_dispatch<P, MR>(mr, kc0 == 0, ai, rsa, csa, panel, ldb,
                                edge ? blk : ci, edge ? NR : ldc, kc);
          for (int64_t r = 0; edge && r < mr; ++r) {
            std::copy_n(blk + r * NR, w, ci + r * ldc);
          }
        }
      }
    }
  };
  if (small) {
    rows(0, m);
  } else {
    core::parallel_for(0, m, kRowGrain, rows);
  }
}

}  // namespace actcomp::tensor::kernels
