// Parallel runtime tests: parallel_for chunking edge cases, exception
// semantics, nesting, and the determinism contract (DESIGN.md §10) — kernel
// results must be bit-identical whatever the pool size.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "autograd/functions.h"
#include "compress/quantize.h"
#include "compress/topk.h"
#include "core/simd.h"
#include "core/threadpool.h"
#include "tensor/fp16.h"
#include "tensor/kernels/kernel_table.h"
#include "tensor/ops.h"
#include "tensor/random.h"

namespace core = actcomp::core;
namespace ts = actcomp::tensor;
namespace cp = actcomp::compress;

namespace {

// Restores the pool size a test overrode so later tests (and other suites in
// this binary) see the default again.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(core::num_threads()) {}
  ~ThreadGuard() { core::set_num_threads(saved_); }

 private:
  int saved_;
};

std::vector<uint8_t> tensor_bytes(const ts::Tensor& t) {
  const auto d = t.data();
  std::vector<uint8_t> out(d.size() * sizeof(float));
  if (!out.empty()) std::memcpy(out.data(), d.data(), out.size());
  return out;
}

// Forces a SIMD tier for one scope; set_simd_isa clamps to what the host
// supports, so the guard is safe to construct with any tier.
class IsaGuard {
 public:
  explicit IsaGuard(core::SimdIsa isa) : saved_(core::simd_isa()) {
    core::set_simd_isa(isa);
  }
  ~IsaGuard() { core::set_simd_isa(saved_); }

 private:
  core::SimdIsa saved_;
};

// Runs fn(isa) for every tier this host can execute, scalar first.
template <typename Fn>
void for_each_supported_isa(Fn&& fn) {
  for (int t = 0; t <= static_cast<int>(core::detected_simd_isa()); ++t) {
    fn(static_cast<core::SimdIsa>(t));
  }
}

}  // namespace

TEST(ParallelFor, EmptyRangeNeverInvokes) {
  std::atomic<int> calls{0};
  core::parallel_for(0, 0, 4, [&](int64_t, int64_t) { ++calls; });
  core::parallel_for(10, 10, 4, [&](int64_t, int64_t) { ++calls; });
  core::parallel_for(5, 3, 4, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, SingletonRange) {
  std::atomic<int> calls{0};
  int64_t seen_b = -1, seen_e = -1;
  core::parallel_for(7, 8, 100, [&](int64_t b, int64_t e) {
    ++calls;
    seen_b = b;
    seen_e = e;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen_b, 7);
  EXPECT_EQ(seen_e, 8);
}

TEST(ParallelFor, UnalignedRangeCoversEveryIndexOnce) {
  ThreadGuard guard;
  for (int threads : {1, 4}) {
    core::set_num_threads(threads);
    // 103 elements, grain 7: a short last chunk and a start offset.
    std::vector<std::atomic<int>> hits(103);
    for (auto& h : hits) h.store(0);
    core::parallel_for(13, 13 + 103, 7, [&](int64_t b, int64_t e) {
      EXPECT_LT(b, e);
      EXPECT_LE(e - b, 7);
      for (int64_t i = b; i < e; ++i) ++hits[static_cast<size_t>(i - 13)];
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, ChunkBoundariesIndependentOfThreadCount) {
  ThreadGuard guard;
  auto boundaries = [](int threads) {
    core::set_num_threads(threads);
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> out;
    core::parallel_for(3, 250, 16, [&](int64_t b, int64_t e) {
      std::lock_guard<std::mutex> lock(mu);
      out.emplace_back(b, e);
    });
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(boundaries(1), boundaries(4));
}

TEST(ParallelFor, ExceptionPropagatesAndPoolSurvives) {
  ThreadGuard guard;
  core::set_num_threads(4);
  EXPECT_THROW(
      core::parallel_for(0, 1000, 1,
                         [&](int64_t b, int64_t) {
                           if (b == 137) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
  // The pool must be fully usable afterwards.
  std::atomic<int64_t> sum{0};
  core::parallel_for(0, 100, 10, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST(ParallelFor, NestedCallsRunInlineWithoutDeadlock) {
  ThreadGuard guard;
  core::set_num_threads(4);
  std::atomic<int64_t> total{0};
  core::parallel_for(0, 8, 1, [&](int64_t, int64_t) {
    // Inner loops run inline on the worker; this must terminate.
    core::parallel_for(0, 100, 3, [&](int64_t b, int64_t e) {
      total += e - b;
    });
  });
  EXPECT_EQ(total.load(), 8 * 100);
}

TEST(Determinism, Matmul2dBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  ts::Generator gen(42);
  // Odd sizes exercise the edge-panel and remainder-row paths too.
  const ts::Tensor a = gen.normal(ts::Shape{95, 130});
  const ts::Tensor b = gen.normal(ts::Shape{130, 77});
  core::set_num_threads(1);
  const auto ref = tensor_bytes(ts::matmul2d(a, b));
  core::set_num_threads(4);
  EXPECT_EQ(tensor_bytes(ts::matmul2d(a, b)), ref);
}

TEST(Determinism, RowMomentsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  ts::Generator gen(7);
  const ts::Tensor x = gen.normal(ts::Shape{64, 96});
  core::set_num_threads(1);
  const auto m1 = ts::row_moments(x, 1e-5f);
  core::set_num_threads(4);
  const auto m4 = ts::row_moments(x, 1e-5f);
  EXPECT_EQ(tensor_bytes(m1.mean), tensor_bytes(m4.mean));
  EXPECT_EQ(tensor_bytes(m1.rstd), tensor_bytes(m4.rstd));
}

TEST(Determinism, TopKEncodeByteIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  ts::Generator gen(3);
  // 196,608 elements: six of the radix select's 32Ki-element chunks, so the
  // per-chunk histograms and the threshold gather cross chunk boundaries.
  const ts::Tensor x = gen.normal(ts::Shape{3, 65536});
  cp::TopKCompressor c(0.1);
  core::set_num_threads(1);
  const auto m1 = c.encode(x);
  core::set_num_threads(4);
  const auto m4 = c.encode(x);
  EXPECT_EQ(m1.body, m4.body);
  EXPECT_EQ(m1.shape_dims, m4.shape_dims);
}

TEST(Determinism, Fp16RoundBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  // 45,000 elements: five full 8Ki-element chunks and a ragged sixth. The
  // specials sit in different chunks, one on a chunk's first element.
  ts::Generator gen(17);
  ts::Tensor x = gen.normal(ts::Shape{45000}, 0.0f, 1000.0f);
  auto d = x.data();
  d[3] = std::numeric_limits<float>::infinity();
  d[8192] = -std::numeric_limits<float>::infinity();
  d[20000] = std::numeric_limits<float>::quiet_NaN();
  d[30001] = 1.0e-6f;     // fp16 subnormal
  d[44999] = -3.0e-8f;    // just over 2^-25: rounds to -2^-24
  d[12345] = 70000.0f;    // overflows to +Inf
  core::set_num_threads(1);
  const auto ref = tensor_bytes(ts::fp16_round(x));
  core::set_num_threads(4);
  EXPECT_EQ(tensor_bytes(ts::fp16_round(x)), ref);
  // And every element is the scalar converter's answer.
  const ts::Tensor rt = ts::fp16_round(x);
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float want = ts::fp16_bits_to_fp32(ts::fp32_to_fp16_bits(d[i]));
    uint32_t got_bits = 0, want_bits = 0;
    std::memcpy(&got_bits, &rt.data()[static_cast<size_t>(i)], 4);
    std::memcpy(&want_bits, &want, 4);
    ASSERT_EQ(got_bits, want_bits) << "element " << i;
  }
}

TEST(Determinism, NumThreadsReflectsResize) {
  ThreadGuard guard;
  core::set_num_threads(3);
  EXPECT_EQ(core::num_threads(), 3);
  core::set_num_threads(1);
  EXPECT_EQ(core::num_threads(), 1);
}

// ---------------------------------------------------------------------------
// Cross-ISA bit-identity (DESIGN.md §15): for every SIMD tier this host can
// run, forcing the tier via core::set_simd_isa must reproduce the scalar
// tier's bytes exactly — kernel results, compressor wire messages, and
// layernorm statistics — at 1 and 4 pool threads. This is the contract that
// lets golden tables and checkpoints move between machines.

TEST(SimdDispatch, ActiveTierNeverExceedsDetected) {
  EXPECT_LE(static_cast<int>(core::simd_isa()),
            static_cast<int>(core::detected_simd_isa()));
  // Forcing a wider tier than the host supports clamps instead of SIGILLing.
  IsaGuard guard(core::SimdIsa::kAvx512);
  EXPECT_LE(static_cast<int>(core::simd_isa()),
            static_cast<int>(core::detected_simd_isa()));
}

TEST(SimdDispatch, TierNamesAreStable) {
  EXPECT_STREQ(core::simd_isa_name(core::SimdIsa::kScalar), "scalar");
  EXPECT_STREQ(core::simd_isa_name(core::SimdIsa::kAvx2), "avx2");
  EXPECT_STREQ(core::simd_isa_name(core::SimdIsa::kAvx512), "avx512");
}

namespace {

// The definition every tier's GEMM must reproduce byte for byte: the
// streaming i-k-j loop. Each C element starts from +0 and takes one fused
// multiply-add per k, in ascending k.
void gemm_reference(const float* a, const float* b, float* c, int64_t m,
                    int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    float* c_row = c + i * n;
    const float* a_row = a + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = a_row[kk];
      const float* b_row = b + kk * n;
      for (int64_t j = 0; j < n; ++j) c_row[j] = std::fma(av, b_row[j], c_row[j]);
    }
  }
}

// Plants, for k >= 2, an operand pair whose fused and unfused sums differ:
// B's columns 0 and n - 1 are zero except at k = 0, where they hold
// 1 + 2^-11, and at k - 1, where they hold 1 + 2^-12; A's rows 0 and m - 1
// hold -1 and 1 + 2^-12 there. Each of C's corners then sums -(1 + 2^-11)
// and (1 + 2^-12)^2 = 1 + 2^-11 + 2^-24, which is 2^-24 fused and +0 with
// the product rounded first. Column 0 lies in a full tile once n is a tile
// wide and column n - 1 in the edge when n is ragged, so the pair reaches
// the tile and the edge, in place and packed.
void plant_fused_pair(ts::Tensor& a, ts::Tensor& b) {
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (k < 2) return;
  const float p11 = 1.0f + std::ldexp(1.0f, -11), p12 = 1.0f + std::ldexp(1.0f, -12);
  for (const int64_t j : {int64_t{0}, n - 1}) {
    for (int64_t kk = 0; kk < k; ++kk) b.at({kk, j}) = 0.0f;
    b.at({0, j}) = p11;
    b.at({k - 1, j}) = p12;
  }
  for (const int64_t i : {int64_t{0}, m - 1}) {
    a.at({i, 0}) = -1.0f;
    a.at({i, k - 1}) = p12;
  }
}

// Normal draws with signed zeros, subnormals, and pairs whose product
// underflows to ±0 planted every fifth element.
ts::Tensor gemm_operand(ts::Generator& gen, const ts::Shape& shape) {
  static constexpr float kSpecial[] = {-0.0f,     0.0f,     1.0e-40f,
                                       -2.5e-39f, 1.0e-30f, -1.0e-30f};
  ts::Tensor t = gen.normal(shape);
  auto d = t.data();
  for (size_t i = 0; i < d.size(); i += 5) d[i] = kSpecial[(i / 5) % 6];
  return t;
}

}  // namespace

namespace {

// A 2-D transpose, copied element by element.
ts::Tensor transposed(const ts::Tensor& a) {
  ts::Tensor t{ts::Shape{a.dim(1), a.dim(0)}};
  for (int64_t i = 0; i < a.dim(0); ++i) {
    for (int64_t j = 0; j < a.dim(1); ++j) t.at({j, i}) = a.at({i, j});
  }
  return t;
}

}  // namespace

TEST(SimdIdentity, MatmulBytesMatchScalarAcrossTiers) {
  ThreadGuard tguard;
  ts::Generator gen(41);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // 80^3 takes the packed path (above kSimpleGemmFlops) and 96x64x50 adds
  // ragged edge tiles to it; 37x1031x50 runs the packed edge over three
  // k-blocks with m ragged for every tier's tile, so the edge carries C from
  // one k-block to the next. Every other shape runs on the caller's thread:
  // m, n and k straddle each tier's tile (scalar 6x8, AVX2 5x16, AVX-512
  // 8x32), so ragged n puts the edge tile on B's last row; 4x512x128 is
  // decode's largest per-token GEMM, exactly at the threshold, and k > 512
  // reloads C between k-blocks. A transposed B takes the serial packing
  // there instead of the in-place read.
  std::vector<std::array<int64_t, 3>> shapes = {
      {80, 80, 80}, {96, 64, 50}, {37, 1031, 50}, {8, 8, 8},
      {4, 512, 128}, {1, 1031, 33}, {6, 600, 17}};
  for (int64_t m : {1, 4, 5, 6, 7, 8, 9, 17}) {
    for (int64_t n : {1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 96}) {
      for (int64_t k : {1, 33, 128}) shapes.push_back({m, k, n});
    }
  }
  for (const auto& s : shapes) {
    const int64_t m = s[0], k = s[1], n = s[2];
    ts::Tensor a = gemm_operand(gen, ts::Shape{m, k});
    ts::Tensor b = gemm_operand(gen, ts::Shape{k, n});
    plant_fused_pair(a, b);
    const ts::Tensor at = transposed(a);  // (k, m)
    const ts::Tensor bt = transposed(b);  // (n, k)
    ts::Tensor want(ts::Shape{m, n});
    gemm_reference(a.data().data(), b.data().data(), want.data().data(), m, k,
                   n);
    if (k >= 2) {
      ASSERT_EQ(want.at({0, 0}), std::ldexp(1.0f, -24));
      ASSERT_EQ(want.at({m - 1, n - 1}), std::ldexp(1.0f, -24));
    }
    const auto ref = tensor_bytes(want);
    for_each_supported_isa([&](core::SimdIsa isa) {
      IsaGuard guard(isa);
      const auto& kt = ts::kernels::kernels_for_tier(static_cast<int>(isa));
      for (int threads : {1, 4}) {
        core::set_num_threads(threads);
        const std::string what = std::string(core::simd_isa_name(isa)) +
                                 " t=" + std::to_string(threads) + " " +
                                 std::to_string(m) + "x" + std::to_string(k) +
                                 "x" + std::to_string(n);
        EXPECT_EQ(tensor_bytes(ts::matmul2d(a, b)), ref) << what;
        // gemm_into overwrites C: matmul2d hands it zeros, so a tile that
        // read C before its first k-block would pass above but not here.
        // Each operand is also read transposed through its strides.
        struct Operands {
          const char* label;
          const float* a;
          int64_t rsa, csa;
          const float* b;
          int64_t rsb, csb;
        };
        const Operands cases[] = {
            {"into NaN", a.data().data(), k, 1, b.data().data(), n, 1},
            {"A^T", at.data().data(), 1, m, b.data().data(), n, 1},
            {"B^T", a.data().data(), k, 1, bt.data().data(), 1, k},
            {"A^T B^T", at.data().data(), 1, m, bt.data().data(), 1, k}};
        for (const Operands& op : cases) {
          ts::Tensor c(ts::Shape{m, n});
          std::fill(c.data().begin(), c.data().end(), nan);
          kt.gemm_into(op.a, op.rsa, op.csa, op.b, op.rsb, op.csb,
                       c.data().data(), n, m, k, n);
          EXPECT_EQ(tensor_bytes(c), ref) << what << " " << op.label;
        }
        // C inside a wider buffer: rows ldc = n + 3 apart, the gaps stay NaN.
        const int64_t ldc = n + 3;
        std::vector<float> wide(static_cast<size_t>(m * ldc), nan);
        kt.gemm_into(a.data().data(), k, 1, b.data().data(), n, 1, wide.data(),
                     ldc, m, k, n);
        ts::Tensor got(ts::Shape{m, n});
        bool gaps_nan = true;
        for (int64_t i = 0; i < m; ++i) {
          std::copy_n(wide.data() + i * ldc, n, got.data().data() + i * n);
          for (int64_t j = n; j < ldc; ++j) gaps_nan &= std::isnan(wide[i * ldc + j]);
        }
        EXPECT_EQ(tensor_bytes(got), ref) << what << " ldc=" << ldc;
        EXPECT_TRUE(gaps_nan) << what << " wrote past n";
      }
    });
    core::set_num_threads(1);
  }
  // The attention products, one head per column block of a wider matrix
  // with row stride h = heads * dh. Scores (32 heads, 64x32x64): A is Q's
  // column block and B is Kᵀ read from K's rows (strides 1, h). Context (16
  // heads, 1x33x32): B is V's column block and C the output's, ldc = h.
  struct Heads {
    int64_t heads, m, k, n;
    bool scores;
  };
  for (const Heads& hc : {Heads{32, 64, 32, 64, true}, Heads{16, 1, 33, 32, false}}) {
    const int64_t heads = hc.heads, m = hc.m, k = hc.k, n = hc.n;
    // scores: Q [m, heads*k], K [n, heads*k], S [heads, m, n].
    // context: P [heads, m, k], V [k, heads*n], O [m, heads*n].
    const ts::Tensor a = hc.scores ? gemm_operand(gen, ts::Shape{m, heads * k})
                                   : gemm_operand(gen, ts::Shape{heads, m, k});
    const ts::Tensor b = hc.scores ? gemm_operand(gen, ts::Shape{n, heads * k})
                                   : gemm_operand(gen, ts::Shape{k, heads * n});
    const int64_t h = hc.scores ? heads * k : heads * n;
    ts::Tensor want(hc.scores ? ts::Shape{heads, m, n} : ts::Shape{m, heads * n});
    for (int64_t g = 0; g < heads; ++g) {
      ts::Tensor ag(ts::Shape{m, k}), bg(ts::Shape{k, n}), cg(ts::Shape{m, n});
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < k; ++j) {
          ag.at({i, j}) = hc.scores ? a.at({i, g * k + j}) : a.at({g, i, j});
        }
      }
      for (int64_t i = 0; i < k; ++i) {
        for (int64_t j = 0; j < n; ++j) {
          bg.at({i, j}) = hc.scores ? b.at({j, g * k + i}) : b.at({i, g * n + j});
        }
      }
      gemm_reference(ag.data().data(), bg.data().data(), cg.data().data(), m, k, n);
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
          if (hc.scores) {
            want.at({g, i, j}) = cg.at({i, j});
          } else {
            want.at({i, g * n + j}) = cg.at({i, j});
          }
        }
      }
    }
    const auto ref = tensor_bytes(want);
    for_each_supported_isa([&](core::SimdIsa isa) {
      IsaGuard guard(isa);
      const auto& kt = ts::kernels::kernels_for_tier(static_cast<int>(isa));
      for (int threads : {1, 4}) {
        core::set_num_threads(threads);
        ts::Tensor c(want.shape());
        std::fill(c.data().begin(), c.data().end(), nan);
        core::parallel_for(0, heads, 1, [&](int64_t g0, int64_t g1) {
          for (int64_t g = g0; g < g1; ++g) {
            if (hc.scores) {
              kt.gemm_into(a.data().data() + g * k, h, 1, b.data().data() + g * k,
                           1, h, c.data().data() + g * m * n, n, m, k, n);
            } else {
              kt.gemm_into(a.data().data() + g * m * k, k, 1,
                           b.data().data() + g * n, h, 1,
                           c.data().data() + g * n, h, m, k, n);
            }
          }
        });
        EXPECT_EQ(tensor_bytes(c), ref)
            << core::simd_isa_name(isa) << " t=" << threads << " " << heads
            << " heads of " << m << "x" << k << "x" << n;
      }
    });
    core::set_num_threads(1);
  }
}

TEST(SimdIdentity, TopKWireBytesMatchScalarAcrossTiers) {
  ThreadGuard tguard;
  ts::Generator gen(42);
  const ts::Tensor x = gen.normal(ts::Shape{37, 1111});
  cp::TopKCompressor c(0.07);
  IsaGuard scalar_guard(core::SimdIsa::kScalar);
  core::set_num_threads(1);
  const auto ref = c.encode(x);
  const auto ref_dec = tensor_bytes(c.decode(ref));
  for_each_supported_isa([&](core::SimdIsa isa) {
    IsaGuard guard(isa);
    for (int threads : {1, 4}) {
      core::set_num_threads(threads);
      const auto msg = c.encode(x);
      EXPECT_EQ(msg.body, ref.body)
          << core::simd_isa_name(isa) << " t=" << threads;
      EXPECT_EQ(tensor_bytes(c.decode(msg)), ref_dec)
          << core::simd_isa_name(isa) << " t=" << threads;
    }
  });
}

TEST(SimdIdentity, QuantizeWireBytesMatchScalarAcrossTiers) {
  ThreadGuard tguard;
  ts::Generator gen(43);
  ts::Tensor x = gen.normal(ts::Shape{19, 515});
  {
    // Seed the min/max ties the SIMD row_minmax must resolve like the
    // serial first-wins scan: signed zeros and duplicated extremes.
    auto d = x.data();
    d[0] = -0.0f;
    d[1] = 0.0f;
    d[515] = d[516];
    d[2 * 515 + 3] = d[2 * 515 + 4] = -3.5f;
  }
  for (int bits : {3, 4, 8}) {
    cp::QuantizeCompressor c(bits);
    IsaGuard scalar_guard(core::SimdIsa::kScalar);
    core::set_num_threads(1);
    const auto ref = c.encode(x);
    const auto ref_rt = tensor_bytes(c.round_trip(x));
    for_each_supported_isa([&](core::SimdIsa isa) {
      IsaGuard guard(isa);
      for (int threads : {1, 4}) {
        core::set_num_threads(threads);
        EXPECT_EQ(c.encode(x).body, ref.body)
            << bits << "b " << core::simd_isa_name(isa) << " t=" << threads;
        EXPECT_EQ(tensor_bytes(c.round_trip(x)), ref_rt)
            << bits << "b " << core::simd_isa_name(isa) << " t=" << threads;
      }
    });
    core::set_num_threads(1);
  }
}

TEST(SimdIdentity, LayernormBytesMatchScalarAcrossTiers) {
  ThreadGuard tguard;
  ts::Generator gen(44);
  const ts::Tensor x = gen.normal(ts::Shape{33, 127});
  IsaGuard scalar_guard(core::SimdIsa::kScalar);
  core::set_num_threads(1);
  const auto ref = ts::row_moments(x, 1e-5f);
  const auto ref_mean = tensor_bytes(ref.mean);
  const auto ref_rstd = tensor_bytes(ref.rstd);
  for_each_supported_isa([&](core::SimdIsa isa) {
    IsaGuard guard(isa);
    for (int threads : {1, 4}) {
      core::set_num_threads(threads);
      const auto mo = ts::row_moments(x, 1e-5f);
      EXPECT_EQ(tensor_bytes(mo.mean), ref_mean)
          << core::simd_isa_name(isa) << " t=" << threads;
      EXPECT_EQ(tensor_bytes(mo.rstd), ref_rstd)
          << core::simd_isa_name(isa) << " t=" << threads;
    }
  });
}

TEST(SimdIdentity, Fp16EdgeCasesMatchSoftwareConverter) {
  ThreadGuard tguard;
  // Exact-boundary, subnormal, halfway (round-to-nearest-even), overflow,
  // infinity, and NaN inputs, padded with a ragged tail so every SIMD width
  // exercises its remainder path.
  std::vector<float> vals = {
      0.0f, -0.0f, 1.0f, -1.0f, 65504.0f, -65504.0f,   // max finite fp16
      65520.0f, 65536.0f, 1e30f,                        // overflow -> inf
      -1e30f, 5.960464478e-8f, 2.980232239e-8f,         // subnormal/halfway
      1.00048828125f, 1.0009765625f, 1.00146484375f,    // RNE halfway cases
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
  };
  ts::Generator gen(45);
  const ts::Tensor noise = gen.normal(ts::Shape{61});
  for (float v : noise.data()) vals.push_back(v * 100.0f);

  std::vector<float> ref(vals.size());
  for (size_t i = 0; i < vals.size(); ++i) {
    ref[i] = ts::fp16_bits_to_fp32(ts::fp32_to_fp16_bits(vals[i]));
  }
  for_each_supported_isa([&](core::SimdIsa isa) {
    IsaGuard guard(isa);
    ts::Tensor t{ts::Shape{static_cast<int64_t>(vals.size())}, vals};
    const ts::Tensor rt = ts::fp16_round(t);
    const auto d = rt.data();
    for (size_t i = 0; i < vals.size(); ++i) {
      uint32_t got, want;
      std::memcpy(&got, &d[i], 4);
      std::memcpy(&want, &ref[i], 4);
      EXPECT_EQ(got, want) << core::simd_isa_name(isa) << " vals[" << i
                           << "]=" << vals[i];
    }
  });
}

TEST(SimdIdentity, BiasActMatchesComposition) {
  ThreadGuard tguard;
  namespace ag = actcomp::autograd;
  ts::Generator gen(46);
  const ts::Tensor xv = gen.normal(ts::Shape{5, 37});
  ts::Tensor bv = gen.normal(ts::Shape{37});
  bv.data()[3] = 0.0f;  // make some pre-activations land exactly on 0

  const auto run = [&](bool fused, ag::Act act) {
    ag::Variable x = ag::Variable::leaf(xv, true);
    ag::Variable b = ag::Variable::leaf(bv, true);
    ag::Variable y;
    if (fused) {
      y = ag::bias_act(x, b, act);
    } else {
      ag::Variable pre = ag::add(x, b);
      y = act == ag::Act::kGelu ? ag::gelu(pre) : pre;
    }
    ag::Variable loss = ag::mse_loss(y, ts::Tensor{y.value().shape()});
    loss.backward();
    return std::array<std::vector<uint8_t>, 3>{
        tensor_bytes(y.value()), tensor_bytes(x.grad()), tensor_bytes(b.grad())};
  };

  for (ag::Act act : {ag::Act::kNone, ag::Act::kGelu}) {
    const auto ref = run(false, act);
    for_each_supported_isa([&](core::SimdIsa isa) {
      IsaGuard guard(isa);
      for (int threads : {1, 4}) {
        core::set_num_threads(threads);
        const auto got = run(true, act);
        EXPECT_EQ(got[0], ref[0]) << core::simd_isa_name(isa) << " t=" << threads;
        EXPECT_EQ(got[1], ref[1]) << core::simd_isa_name(isa) << " t=" << threads;
        EXPECT_EQ(got[2], ref[2]) << core::simd_isa_name(isa) << " t=" << threads;
      }
    });
    core::set_num_threads(1);
  }
}

namespace {

// GELU inputs for the tier-identity tests: signed zeros, infinities, NaNs,
// subnormals, |x| where x^3 (and x^2) overflow, a sweep across the tanh
// saturation edge (|u| from ~6.5 to ~11 as |x| runs 4.5 -> 5.5), then
// seeded normals out to 3+ parallel chunks.
std::vector<float> gelu_inputs() {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float fmax = std::numeric_limits<float>::max();
  const float denorm = std::numeric_limits<float>::denorm_min();
  std::vector<float> v = {0.0f,   -0.0f,  inf,    -inf,   nan,    -nan,
                          denorm, -denorm, 1e-40f, -1e-40f, 1e-20f, -1e-20f,
                          2e12f,  -2e12f, 1e13f,  -1e13f, 1e20f,  -1e20f,
                          fmax,   -fmax};
  for (int i = 0; i <= 2000; ++i) {
    const float x = 4.5f + static_cast<float>(i) * 5e-4f;
    v.push_back(x);
    v.push_back(-x);
  }
  ts::Generator gen(47);
  const ts::Tensor noise = gen.normal(ts::Shape{20000}, 0.0f, 3.0f);
  for (float x : noise.data()) v.push_back(x);
  return v;
}

}  // namespace

TEST(SimdIdentity, GeluBytesMatchScalarAcrossTiers) {
  ThreadGuard tguard;
  const std::vector<float> vals = gelu_inputs();
  const ts::Tensor x{ts::Shape{static_cast<int64_t>(vals.size())}, vals};
  IsaGuard scalar_guard(core::SimdIsa::kScalar);
  core::set_num_threads(1);
  const auto ref = tensor_bytes(ts::gelu(x));
  const auto ref_grad = tensor_bytes(ts::gelu_grad(x));
  for_each_supported_isa([&](core::SimdIsa isa) {
    IsaGuard guard(isa);
    for (int threads : {1, 4}) {
      core::set_num_threads(threads);
      EXPECT_EQ(tensor_bytes(ts::gelu(x)), ref)
          << core::simd_isa_name(isa) << " t=" << threads;
      EXPECT_EQ(tensor_bytes(ts::gelu_grad(x)), ref_grad)
          << core::simd_isa_name(isa) << " t=" << threads;
    }
  });
}

TEST(SimdIdentity, GeluBiasActBytesMatchScalarAcrossTiers) {
  ThreadGuard tguard;
  namespace ag = actcomp::autograd;
  // [601, 37]: the special inputs fill the first rows, one per element,
  // and the rest are the seeded normals. 22237 elements span 3 chunks.
  std::vector<float> vals = gelu_inputs();
  vals.resize(601 * 37);
  const ts::Tensor xv{ts::Shape{601, 37}, vals};
  ts::Generator gen(48);
  const ts::Tensor bv = gen.normal(ts::Shape{37});

  const auto run = [&] {
    ag::Variable x = ag::Variable::leaf(xv, true);
    ag::Variable b = ag::Variable::leaf(bv, true);
    ag::Variable y = ag::bias_act(x, b, ag::Act::kGelu);
    ts::Generator seed_gen(49);
    y.backward(seed_gen.normal(y.value().shape()));
    return std::array<std::vector<uint8_t>, 3>{
        tensor_bytes(y.value()), tensor_bytes(x.grad()), tensor_bytes(b.grad())};
  };
  IsaGuard scalar_guard(core::SimdIsa::kScalar);
  core::set_num_threads(1);
  const auto ref = run();
  for_each_supported_isa([&](core::SimdIsa isa) {
    IsaGuard guard(isa);
    for (int threads : {1, 4}) {
      core::set_num_threads(threads);
      const auto got = run();
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], ref[i])
            << "output " << i << " " << core::simd_isa_name(isa) << " t=" << threads;
      }
    }
  });
}

namespace {

// Seeded normals with ±0, ±Inf and subnormals (plus a NaN of each sign when
// `with_nan`) written every `stride` elements, so the special values land in
// every tier's vector bodies and scalar remainders.
std::vector<float> ew_operand(int64_t n, uint64_t seed, int64_t stride,
                              bool with_nan) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> specials = {0.0f, -0.0f, inf, -inf,
                                 std::numeric_limits<float>::denorm_min(),
                                 -1e-40f, 1e-39f};
  if (with_nan) {
    specials.push_back(nan);
    specials.push_back(-nan);
  }
  ts::Generator gen(seed);
  const ts::Tensor t = gen.normal(ts::Shape{n}, 0.0f, 2.0f);
  std::vector<float> v(t.data().begin(), t.data().end());
  for (int64_t i = 0; i < n; i += stride) {
    v[static_cast<size_t>(i)] = specials[static_cast<size_t>(i / stride) % specials.size()];
  }
  return v;
}

// Index of the first element whose bytes differ, or -1.
int64_t first_byte_mismatch(const std::vector<float>& got,
                            const std::vector<float>& want) {
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      return static_cast<int64_t>(i);
    }
  }
  return -1;
}

}  // namespace

// The elementwise entries and ln_xhat called directly through each tier's
// table: same-shape and broadcast ranges (nb in {1, 37, 128}) whose lo is
// off a multiple of nb, ragged lengths, and ±0/±Inf/subnormal operands with
// NaN in one operand. Every output buffer starts as a sentinel and is
// compared whole, so a write outside [lo, hi) fails too. The broadcast
// entries are also checked against their definition out[i] = a[i] op
// b[i % nb]: every tier shares the loop that splits a range at multiples of
// nb, so comparing tiers alone would not catch a piece that starts at the
// wrong offset in b.
TEST(SimdIdentity, ElementwiseBytesMatchScalarAcrossTiers) {
  namespace kn = ts::kernels;
  using Binary = decltype(kn::KernelTable::ew_add);
  using WithScalar = decltype(kn::KernelTable::ew_mul_scalar);
  constexpr int64_t n = 1031;  // not a multiple of any vector width
  const std::vector<float> a = ew_operand(n, 50, 7, /*with_nan=*/true);
  const std::vector<float> b = ew_operand(n, 51, 5, /*with_nan=*/false);
  const kn::KernelTable& ref = kn::kernels_for_tier(0);

  struct BinaryEntry {
    const char* name;
    Binary kn::KernelTable::*fn;
    float (*def)(float, float);
  };
  const BinaryEntry binaries[] = {
      {"add", &kn::KernelTable::ew_add, [](float x, float y) { return x + y; }},
      {"sub", &kn::KernelTable::ew_sub, [](float x, float y) { return x - y; }},
      {"mul", &kn::KernelTable::ew_mul, [](float x, float y) { return x * y; }}};
  const std::pair<const char*, WithScalar kn::KernelTable::*> with_scalars[] = {
      {"mul_scalar", &kn::KernelTable::ew_mul_scalar},
      {"sub_scalar", &kn::KernelTable::ew_sub_scalar}};
  const std::pair<int64_t, int64_t> ranges[] = {
      {0, n}, {5, n - 3}, {5, 100}, {77, 300}, {261, n}, {n - 1, n}};

  for_each_supported_isa([&](core::SimdIsa isa) {
    const kn::KernelTable& t = kn::kernels_for_tier(static_cast<int>(isa));
    // Runs want_fn(buf) and fn(t, buf) on buffers of 2n sentinels and
    // compares them whole; check() takes want from the scalar table.
    const auto compare = [&](const std::string& what, auto&& want_fn, auto&& fn) {
      std::vector<float> want(2 * n, 12345.0f), got(2 * n, 12345.0f);
      want_fn(want);
      fn(t, got);
      EXPECT_EQ(first_byte_mismatch(got, want), -1) << t.name << " " << what;
    };
    const auto check = [&](const std::string& what, auto&& fn) {
      compare(what, [&](std::vector<float>& out) { fn(ref, out); }, fn);
    };
    for (const auto& [lo, hi] : ranges) {
      const std::string span = " [" + std::to_string(lo) + ", " + std::to_string(hi) + ")";
      for (const int64_t nb : {n, int64_t{1}, int64_t{37}, int64_t{128}}) {
        const std::string where = span + " nb=" + std::to_string(nb);
        for (const BinaryEntry& e : binaries) {
          const auto run = [&](const kn::KernelTable& k, std::vector<float>& out) {
            (k.*e.fn)(a.data(), b.data(), out.data(), lo, hi, nb);
          };
          check(e.name + where, run);
          compare(e.name + where + " vs definition", [&](std::vector<float>& out) {
            for (int64_t i = lo; i < hi; ++i) out[i] = e.def(a[i], b[i % nb]);
          }, run);
        }
      }
      for (const float s : {0.75f, -0.0f, -std::numeric_limits<float>::infinity()}) {
        const std::string where = span + " s=" + std::to_string(s);
        for (const auto& [name, fn] : with_scalars) {
          check(name + where, [&, fn = fn](const kn::KernelTable& k, std::vector<float>& out) {
            (k.*fn)(a.data(), s, out.data(), lo, hi);
          });
        }
        check("scale" + where, [&](const kn::KernelTable& k, std::vector<float>& out) {
          std::copy(a.begin(), a.end(), out.begin());
          k.ew_scale(out.data(), s, lo, hi);
        });
      }
    }
    // ln_xhat on rows of a; row ranges that skip the first and last rows.
    for (const int64_t cols : {int64_t{1}, int64_t{37}, int64_t{128}, int64_t{131}}) {
      const int64_t rows = n / cols;
      const std::vector<float> mean = ew_operand(rows, 52, rows, /*with_nan=*/false);
      std::vector<float> rstd = ew_operand(rows, 53, rows, /*with_nan=*/false);
      for (float& r : rstd) r = std::fabs(r) + 0.25f;
      for (const auto& [r0, r1] : {std::pair{int64_t{0}, rows}, std::pair{int64_t{1}, rows - 1}}) {
        check("ln_xhat cols=" + std::to_string(cols) + " rows [" + std::to_string(r0) + ", " +
                  std::to_string(r1) + ")",
              [&](const kn::KernelTable& k, std::vector<float>& out) {
                k.ln_xhat(a.data(), mean.data(), rstd.data(), out.data(), r0, r1, cols);
              });
      }
    }
  });
}

// Adam's update through each tier's table, in parallel_for chunks at 1 and
// 4 lanes, against the scalar loop Adam::step ran before the update became
// a kernel entry, kept here verbatim as the oracle. The gradients carry ±0,
// subnormals and magnitudes whose square overflows to +Inf, so v saturates
// and the step divides by an infinite root.
TEST(SimdIdentity, AdamUpdateMatchesScalarLoop) {
  ThreadGuard tguard;
  constexpr int64_t n = 40009;  // ragged for every vector width
  constexpr float lr = 1e-3f, beta1 = 0.9f, beta2 = 0.999f, eps = 1e-8f, wd = 0.01f;
  constexpr float kSpecial[] = {0.0f, -0.0f, std::numeric_limits<float>::denorm_min(),
                                -1e-40f, 3e38f, -1e20f, 1e19f, -2.5e-39f};
  ts::Generator gen(55);
  const ts::Tensor w0 = gen.normal(ts::Shape{n});
  std::vector<std::vector<float>> grads;
  for (int step = 0; step < 3; ++step) {
    const ts::Tensor t = gen.normal(ts::Shape{n}, 0.0f, 0.5f);
    std::vector<float> g(t.data().begin(), t.data().end());
    for (int64_t i = step; i < n; i += 13) g[static_cast<size_t>(i)] = kSpecial[(i / 13) % 8];
    grads.push_back(std::move(g));
  }
  const auto bias_corrections = [&](int t) {
    return std::pair{1.0f - std::pow(beta1, static_cast<float>(t)),
                     1.0f - std::pow(beta2, static_cast<float>(t))};
  };
  // want[s] is {w, m, v} after step s + 1.
  std::vector<std::array<std::vector<float>, 3>> want;
  std::vector<float> w(w0.data().begin(), w0.data().end()), m(n, 0.0f), v(n, 0.0f);
  for (int step = 0; step < 3; ++step) {
    const auto [bc1, bc2] = bias_corrections(step + 1);
    const std::vector<float>& g = grads[static_cast<size_t>(step)];
    for (size_t j = 0; j < w.size(); ++j) {
      m[j] = beta1 * m[j] + (1.0f - beta1) * g[j];
      v[j] = beta2 * v[j] + (1.0f - beta2) * g[j] * g[j];
      const float mhat = m[j] / bc1;
      const float vhat = v[j] / bc2;
      w[j] -= lr * (mhat / (std::sqrt(vhat) + eps) + wd * w[j]);
    }
    want.push_back({w, m, v});
  }
  ASSERT_TRUE(std::isinf(want[0][2][static_cast<size_t>(4 * 13)]));  // 3e38^2 saturates v

  for_each_supported_isa([&](core::SimdIsa isa) {
    const ts::kernels::KernelTable& kt = ts::kernels::kernels_for_tier(static_cast<int>(isa));
    for (const int threads : {1, 4}) {
      core::set_num_threads(threads);
      std::vector<float> gw(w0.data().begin(), w0.data().end()), gm(n, 0.0f), gv(n, 0.0f);
      for (int step = 0; step < 3; ++step) {
        const auto [bc1, bc2] = bias_corrections(step + 1);
        const ts::kernels::AdamStep s{lr, beta1, beta2, eps, wd, bc1, bc2};
        const float* g = grads[static_cast<size_t>(step)].data();
        core::parallel_for(0, n, 1000, [&](int64_t lo, int64_t hi) {
          kt.adam_update(gw.data(), g, gm.data(), gv.data(), lo, hi, s);
        });
        const std::string what = std::string(kt.name) + " t=" + std::to_string(threads) +
                                 " step " + std::to_string(step + 1);
        const auto& [ww, wm, wv] = want[static_cast<size_t>(step)];
        EXPECT_EQ(first_byte_mismatch(gw, ww), -1) << what << " w";
        EXPECT_EQ(first_byte_mismatch(gm, wm), -1) << what << " m";
        EXPECT_EQ(first_byte_mismatch(gv, wv), -1) << what << " v";
      }
    }
  });
}
