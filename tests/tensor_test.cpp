// Unit and property tests for the tensor substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>

#include "core/threadpool.h"
#include "tensor/check.h"
#include "tensor/fp16.h"
#include "tensor/io.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "tensor/svd.h"
#include "tensor/tensor.h"

namespace ts = actcomp::tensor;

// ---------- Shape ----------

TEST(Shape, BasicQueries) {
  ts::Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.dim(-1), 4);
  EXPECT_EQ(s.dim(-3), 2);
  EXPECT_EQ(s.str(), "[2, 3, 4]");
}

TEST(Shape, ScalarShape) {
  ts::Shape s{};
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.numel(), 1);
}

TEST(Shape, Strides) {
  ts::Shape s{2, 3, 4};
  const auto st = s.strides();
  EXPECT_EQ(st, (std::vector<int64_t>{12, 4, 1}));
}

TEST(Shape, NegativeExtentThrows) {
  EXPECT_THROW(ts::Shape({2, -1}), std::invalid_argument);
}

TEST(Shape, ElementCountOverflowThrows) {
  // 2^64 elements do not fit in int64_t: rejected, not wrapped to 0.
  EXPECT_THROW(ts::Shape({int64_t{1} << 32, int64_t{1} << 32}),
               std::invalid_argument);
  EXPECT_EQ(ts::Shape({int64_t{1} << 31, int64_t{1} << 31}).numel(),
            int64_t{1} << 62);
}

TEST(Shape, CheckFailureNamesFileFromRepositoryRoot) {
  // Error text must not depend on where the repository is checked out: the
  // build maps the root away from __FILE__.
  try {
    ts::Shape({2, -1});
    FAIL() << "negative extent accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(" at src/tensor/shape.cpp:"), std::string::npos) << what;
    EXPECT_EQ(what.find(" at /"), std::string::npos) << what;
    EXPECT_EQ(what.find("/src/"), std::string::npos) << what;
  }
}

TEST(Shape, DimOutOfRangeThrows) {
  ts::Shape s{2, 3};
  EXPECT_THROW(s.dim(2), std::invalid_argument);
  EXPECT_THROW(s.dim(-3), std::invalid_argument);
}

TEST(Shape, Equality) {
  EXPECT_EQ(ts::Shape({2, 3}), ts::Shape({2, 3}));
  EXPECT_NE(ts::Shape({2, 3}), ts::Shape({3, 2}));
}

// ---------- Tensor ----------

TEST(Tensor, ZeroInitialized) {
  ts::Tensor t{ts::Shape{3, 3}};
  for (float v : t.data()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, FromValues) {
  ts::Tensor t(ts::Shape{2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at({0, 1}), 2.0f);
  EXPECT_EQ(t.at({1, 0}), 3.0f);
}

TEST(Tensor, ValueCountMismatchThrows) {
  EXPECT_THROW(ts::Tensor(ts::Shape{2, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, CopySharesStorageCloneDoesNot) {
  ts::Tensor a(ts::Shape{2}, {1, 2});
  ts::Tensor b = a;  // NOLINT: aliasing is the point
  ts::Tensor c = a.clone();
  EXPECT_TRUE(a.shares_storage_with(b));
  EXPECT_FALSE(a.shares_storage_with(c));
  b.data()[0] = 99.0f;
  EXPECT_EQ(a.at({0}), 99.0f);
  EXPECT_EQ(c.at({0}), 1.0f);
}

TEST(Tensor, ReshapePreservesStorage) {
  ts::Tensor a = ts::Tensor::arange(6);
  ts::Tensor b = a.reshape(ts::Shape{2, 3});
  EXPECT_TRUE(a.shares_storage_with(b));
  EXPECT_EQ(b.at({1, 2}), 5.0f);
  EXPECT_THROW(a.reshape(ts::Shape{4}), std::invalid_argument);
}

TEST(Tensor, ItemRequiresScalar) {
  EXPECT_EQ(ts::Tensor::scalar(7.5f).item(), 7.5f);
  EXPECT_THROW(ts::Tensor::arange(3).item(), std::invalid_argument);
}

TEST(Tensor, FullAndArange) {
  ts::Tensor f = ts::Tensor::full(ts::Shape{4}, 2.5f);
  for (float v : f.data()) EXPECT_EQ(v, 2.5f);
  ts::Tensor a = ts::Tensor::arange(4, 1.0f, 0.5f);
  EXPECT_FLOAT_EQ(a.at({3}), 2.5f);
}

TEST(Tensor, IndexOutOfRangeThrows) {
  ts::Tensor t{ts::Shape{2, 2}};
  EXPECT_THROW(t.at({2, 0}), std::invalid_argument);
  EXPECT_THROW(t.at({0}), std::invalid_argument);
}

// ---------- elementwise ops ----------

TEST(Ops, AddSameShape) {
  ts::Tensor a(ts::Shape{3}, {1, 2, 3});
  ts::Tensor b(ts::Shape{3}, {10, 20, 30});
  EXPECT_TRUE(ts::allclose(ts::add(a, b), ts::Tensor(ts::Shape{3}, {11, 22, 33})));
}

TEST(Ops, AddBroadcastBias) {
  ts::Tensor a(ts::Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  ts::Tensor bias(ts::Shape{3}, {10, 20, 30});
  const ts::Tensor out = ts::add(a, bias);
  EXPECT_TRUE(ts::allclose(out, ts::Tensor(ts::Shape{2, 3}, {11, 22, 33, 14, 25, 36})));
}

TEST(Ops, AddBadBroadcastThrows) {
  ts::Tensor a{ts::Shape{2, 3}};
  ts::Tensor b{ts::Shape{2}};
  EXPECT_THROW(ts::add(a, b), std::invalid_argument);
}

TEST(Ops, MulDivSubScalar) {
  ts::Tensor a(ts::Shape{2}, {4, 9});
  EXPECT_TRUE(ts::allclose(ts::mul_scalar(a, 2.0f), ts::Tensor(ts::Shape{2}, {8, 18})));
  EXPECT_TRUE(ts::allclose(ts::mul(a, a), ts::Tensor(ts::Shape{2}, {16, 81})));
  EXPECT_TRUE(ts::allclose(ts::sub(a, a), ts::Tensor::zeros(ts::Shape{2})));
}

TEST(Ops, UnaryFunctions) {
  ts::Tensor a(ts::Shape{3}, {-1.0f, 0.0f, 1.0f});
  const ts::Tensor t = ts::tanh(a);
  for (int64_t i = 0; i < 3; ++i) EXPECT_EQ(t.at({i}), std::tanh(a.at({i})));
}

TEST(Ops, GeluMatchesReference) {
  // gelu(0) = 0, gelu(x) -> x for large x, gelu(-x) small.
  ts::Tensor a(ts::Shape{3}, {0.0f, 5.0f, -5.0f});
  const ts::Tensor g = ts::gelu(a);
  EXPECT_NEAR(g.at({0}), 0.0f, 1e-6f);
  EXPECT_NEAR(g.at({1}), 5.0f, 1e-3f);
  EXPECT_NEAR(g.at({2}), 0.0f, 1e-3f);
}

TEST(Ops, GeluGradMatchesFiniteDifference) {
  const float xs[] = {-2.0f, -0.5f, 0.0f, 0.3f, 1.7f};
  for (float x : xs) {
    const float eps = 1e-3f;
    const ts::Tensor lo = ts::gelu(ts::Tensor::scalar(x - eps));
    const ts::Tensor hi = ts::gelu(ts::Tensor::scalar(x + eps));
    const float fd = (hi.item() - lo.item()) / (2 * eps);
    EXPECT_NEAR(ts::gelu_grad(ts::Tensor::scalar(x)).item(), fd, 1e-3f) << "x=" << x;
  }
}

// ---------- matmul ----------

TEST(Ops, Matmul2d) {
  ts::Tensor a(ts::Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  ts::Tensor b(ts::Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  const ts::Tensor c = ts::matmul2d(a, b);
  EXPECT_TRUE(ts::allclose(c, ts::Tensor(ts::Shape{2, 2}, {58, 64, 139, 154})));
}

TEST(Ops, MatmulShapeMismatchThrows) {
  EXPECT_THROW(ts::matmul2d(ts::Tensor{ts::Shape{2, 3}}, ts::Tensor{ts::Shape{2, 3}}),
               std::invalid_argument);
}

TEST(Ops, MatmulBatched3x2) {
  ts::Generator gen(1);
  ts::Tensor a = gen.normal(ts::Shape{4, 3, 5});
  ts::Tensor b = gen.normal(ts::Shape{5, 2});
  const ts::Tensor c = ts::matmul(a, b);
  ASSERT_EQ(c.shape(), (ts::Shape{4, 3, 2}));
  // Cross-check batch 2 against 2-D matmul.
  ts::Tensor a2{ts::Shape{3, 5}};
  for (int64_t i = 0; i < 3; ++i)
    for (int64_t j = 0; j < 5; ++j) a2.at({i, j}) = a.at({2, i, j});
  const ts::Tensor ref = ts::matmul2d(a2, b);
  for (int64_t i = 0; i < 3; ++i)
    for (int64_t j = 0; j < 2; ++j)
      EXPECT_NEAR(c.at({2, i, j}), ref.at({i, j}), 1e-4f);
}

TEST(Ops, MatmulAssociativityWithIdentity) {
  ts::Generator gen(3);
  ts::Tensor a = gen.normal(ts::Shape{4, 4});
  ts::Tensor eye{ts::Shape{4, 4}};
  for (int64_t i = 0; i < 4; ++i) eye.at({i, i}) = 1.0f;
  EXPECT_TRUE(ts::allclose(ts::matmul2d(a, eye), a, 1e-5f, 1e-6f));
  EXPECT_TRUE(ts::allclose(ts::matmul2d(eye, a), a, 1e-5f, 1e-6f));
}

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

TEST(Ops, MatmulReadsTransposedOperands) {
  // A stored (k, m) and B stored (n, k), read in place, give the bytes of
  // the product of explicit transposes.
  ts::Generator gen(4);
  const ts::Tensor at = gen.normal(ts::Shape{5, 3});  // A^T
  const ts::Tensor bt = gen.normal(ts::Shape{2, 5});  // B^T
  const ts::Tensor a = transposed(at);
  const ts::Tensor b = transposed(bt);
  const ts::Tensor want = ts::matmul2d(a, b);
  EXPECT_EQ(ts::max_abs_diff(ts::matmul2d(at, b, true, false), want), 0.0f);
  EXPECT_EQ(ts::max_abs_diff(ts::matmul2d(a, bt, false, true), want), 0.0f);
  EXPECT_EQ(ts::max_abs_diff(ts::matmul2d(at, bt, true, true), want), 0.0f);
  EXPECT_THROW(ts::matmul2d(at, b), std::invalid_argument);  // (5,3) x (5,2)
}

// ---------- reductions / log-softmax ----------

TEST(Ops, Reductions) {
  ts::Tensor a(ts::Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(ts::sum_all(a), 21.0f);
  EXPECT_FLOAT_EQ(ts::mean_all(a), 3.5f);
  EXPECT_FLOAT_EQ(ts::max_all(a), 6.0f);
  EXPECT_TRUE(ts::allclose(ts::sum_to_last(a), ts::Tensor(ts::Shape{3}, {5, 7, 9})));
}

TEST(Ops, ArgmaxLast) {
  ts::Tensor a(ts::Shape{2, 3}, {1, 9, 3, 7, 2, 6});
  const ts::Tensor am = ts::argmax_last(a);
  EXPECT_EQ(am.at({0}), 1.0f);
  EXPECT_EQ(am.at({1}), 0.0f);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  // exp(log_softmax) is the softmax: every row is a distribution.
  ts::Generator gen(6);
  ts::Tensor a = gen.normal(ts::Shape{5, 7}, 0.0f, 3.0f);
  const ts::Tensor ls = ts::log_softmax_last(a);
  for (int64_t r = 0; r < 5; ++r) {
    double sum = 0;
    for (int64_t c = 0; c < 7; ++c) {
      const float v = std::exp(ls.at({r, c}));
      EXPECT_GE(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Ops, SoftmaxNumericallyStableForLargeLogits) {
  ts::Tensor a(ts::Shape{1, 3}, {1000.0f, 1000.0f, 1000.0f});
  const ts::Tensor ls = ts::log_softmax_last(a);
  // 1000 + log 3 rounds to float's spacing near 1000, 6.1e-5.
  for (int64_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(ls.at({0, c}), -std::log(3.0f), 1e-4f);
  }
}

TEST(Ops, LogSoftmaxConsistentWithSoftmax) {
  ts::Generator gen(7);
  ts::Tensor a = gen.normal(ts::Shape{4, 6});
  ts::Tensor ls = ts::log_softmax_last(a);
  for (float& v : ls.data()) v = std::exp(v);
  // The textbook softmax, row by row in double.
  ts::Tensor s{a.shape()};
  for (int64_t r = 0; r < 4; ++r) {
    double z = 0.0;
    for (int64_t c = 0; c < 6; ++c) z += std::exp(static_cast<double>(a.at({r, c})));
    for (int64_t c = 0; c < 6; ++c) {
      s.at({r, c}) = static_cast<float>(std::exp(static_cast<double>(a.at({r, c}))) / z);
    }
  }
  EXPECT_TRUE(ts::allclose(ls, s, 1e-4f, 1e-5f));
}

TEST(Ops, RowMoments) {
  ts::Tensor a(ts::Shape{2, 4}, {1, 1, 1, 1, 0, 2, 4, 6});
  const auto mo = ts::row_moments(a, 0.0f);
  EXPECT_NEAR(mo.mean.at({0}), 1.0f, 1e-6f);
  EXPECT_NEAR(mo.mean.at({1}), 3.0f, 1e-6f);
  // row 1 variance = mean((3,1,1,3)^2)... values {0,2,4,6}: var = 5
  EXPECT_NEAR(mo.rstd.at({1}), 1.0f / std::sqrt(5.0f), 1e-5f);
}

// ---------- fp16 ----------

TEST(Fp16, ExactValuesRoundTrip) {
  const float exact[] = {0.0f, 1.0f, -1.0f, 0.5f, 2048.0f, -0.25f, 65504.0f};
  for (float v : exact) {
    EXPECT_EQ(ts::fp16_bits_to_fp32(ts::fp32_to_fp16_bits(v)), v) << v;
  }
}

TEST(Fp16, OverflowGoesToInfinity) {
  const float big = 1e6f;
  EXPECT_TRUE(std::isinf(ts::fp16_bits_to_fp32(ts::fp32_to_fp16_bits(big))));
}

TEST(Fp16, SubnormalsPreserved) {
  const float tiny = 6e-8f;  // within fp16 subnormal range
  const float rt = ts::fp16_bits_to_fp32(ts::fp32_to_fp16_bits(tiny));
  EXPECT_NEAR(rt, tiny, 6e-8f);
  EXPECT_GT(rt, 0.0f);
}

TEST(Fp16, UnderflowToZero) {
  EXPECT_EQ(ts::fp16_bits_to_fp32(ts::fp32_to_fp16_bits(1e-12f)), 0.0f);
}

TEST(Fp16, NanPreserved) {
  EXPECT_TRUE(std::isnan(
      ts::fp16_bits_to_fp32(ts::fp32_to_fp16_bits(std::nanf("")))));
}

// Property sweep: relative error of fp16 rounding is bounded by 2^-11.
class Fp16Property : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Fp16Property, RelativeErrorBounded) {
  ts::Generator gen(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const float v = gen.rand_normal(0.0f, 100.0f);
    const float rt = ts::fp16_bits_to_fp32(ts::fp32_to_fp16_bits(v));
    EXPECT_LE(std::fabs(rt - v), std::fabs(v) * (1.0f / 2048.0f) + 1e-7f) << v;
  }
}

TEST_P(Fp16Property, RoundingIsIdempotent) {
  ts::Generator gen(GetParam() + 1000);
  ts::Tensor t = gen.normal(ts::Shape{256}, 0.0f, 50.0f);
  const ts::Tensor once = ts::fp16_round(t);
  const ts::Tensor twice = ts::fp16_round(once);
  EXPECT_TRUE(ts::allclose(once, twice, 0.0f, 0.0f));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fp16Property, ::testing::Values(11, 22, 33, 44));

// ---------- random ----------

TEST(Random, Deterministic) {
  ts::Generator a(42), b(42);
  EXPECT_TRUE(ts::allclose(a.normal(ts::Shape{16}), b.normal(ts::Shape{16}), 0, 0));
}

TEST(Random, UniformBounds) {
  ts::Generator gen(1);
  ts::Tensor t = gen.uniform(ts::Shape{1000}, -2.0f, 3.0f);
  for (float v : t.data()) {
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 3.0f);
  }
}

TEST(Random, NormalMoments) {
  ts::Generator gen(2);
  ts::Tensor t = gen.normal(ts::Shape{20000}, 1.0f, 2.0f);
  EXPECT_NEAR(ts::mean_all(t), 1.0f, 0.1f);
  double var = 0;
  for (float v : t.data()) var += (v - 1.0) * (v - 1.0);
  var /= static_cast<double>(t.numel());
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Random, SampleWithoutReplacementDistinct) {
  ts::Generator gen(3);
  const auto s = gen.sample_without_replacement(1000000, 5000);
  std::set<int64_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), s.size());
  for (int64_t v : s) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 1000000);
  }
}

TEST(Random, SampleWithoutReplacementFullRange) {
  ts::Generator gen(4);
  auto s = gen.sample_without_replacement(10, 10);
  std::sort(s.begin(), s.end());
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(s[static_cast<size_t>(i)], i);
}

TEST(Random, SampleRoughlyUniform) {
  ts::Generator gen(5);
  std::vector<int> counts(10, 0);
  for (int rep = 0; rep < 4000; ++rep) {
    for (int64_t v : gen.sample_without_replacement(10, 3)) {
      counts[static_cast<size_t>(v)]++;
    }
  }
  // Each index expected 4000 * 3/10 = 1200.
  for (int c : counts) EXPECT_NEAR(c, 1200, 150);
}

TEST(Random, SampleWithoutReplacementMatchesMapReference) {
  // The partial Fisher–Yates loop over std::unordered_map that the flat
  // table replaced: the same draws must give the same sequence.
  const auto reference = [](ts::Generator& gen, int64_t n, int64_t k) {
    std::unordered_map<int64_t, int64_t> displaced;
    std::vector<int64_t> out;
    for (int64_t i = 0; i < k; ++i) {
      const int64_t j = gen.randint(i, n - 1);
      const auto it_j = displaced.find(j);
      const int64_t vj = it_j == displaced.end() ? j : it_j->second;
      const auto it_i = displaced.find(i);
      const int64_t vi = it_i == displaced.end() ? i : it_i->second;
      out.push_back(vj);
      displaced[j] = vi;
    }
    return out;
  };
  const std::pair<int64_t, int64_t> cases[] = {
      {1, 1}, {10, 0}, {10, 10}, {524288, 8533}, {524288, 51200},
      {int64_t{1} << 33, 4096}};
  for (const uint64_t seed : {1u, 7u, 901u}) {
    for (const auto& [n, k] : cases) {
      ts::Generator a(seed), b(seed);
      EXPECT_EQ(a.sample_without_replacement(n, k), reference(b, n, k))
          << "seed=" << seed << " n=" << n << " k=" << k;
    }
  }
}

TEST(Random, SampleBadArgsThrow) {
  ts::Generator gen(6);
  EXPECT_THROW(gen.sample_without_replacement(5, 6), std::invalid_argument);
}

TEST(Random, XavierBounds) {
  ts::Generator gen(7);
  const ts::Tensor w = ts::xavier_uniform(gen, ts::Shape{64, 32}, 64, 32);
  const float bound = std::sqrt(6.0f / 96.0f);
  for (float v : w.data()) {
    EXPECT_GE(v, -bound);
    EXPECT_LE(v, bound);
  }
}

// ---------- SVD ----------

TEST(Svd, DiagonalMatrix) {
  ts::Tensor a{ts::Shape{3, 3}};
  a.at({0, 0}) = 3.0f;
  a.at({1, 1}) = 1.0f;
  a.at({2, 2}) = 2.0f;
  const auto sv = ts::singular_values(a);
  ASSERT_EQ(sv.size(), 3u);
  EXPECT_NEAR(sv[0], 3.0f, 1e-5f);
  EXPECT_NEAR(sv[1], 2.0f, 1e-5f);
  EXPECT_NEAR(sv[2], 1.0f, 1e-5f);
}

TEST(Svd, KnownTwoByTwo) {
  // [[3, 0], [4, 5]]: singular values sqrt(45/2 +- ...) = (6.708..., 2.236...)
  ts::Tensor a(ts::Shape{2, 2}, {3, 0, 4, 5});
  const auto sv = ts::singular_values(a);
  EXPECT_NEAR(sv[0], std::sqrt(45.0f), 1e-4f);
  EXPECT_NEAR(sv[1], std::sqrt(5.0f), 1e-4f);
}

TEST(Svd, FrobeniusNormPreserved) {
  ts::Generator gen(8);
  ts::Tensor a = gen.normal(ts::Shape{20, 12});
  const auto sv = ts::singular_values(a);
  double sq = 0;
  for (float v : sv) sq += static_cast<double>(v) * v;
  EXPECT_NEAR(std::sqrt(sq), ts::frobenius_norm(a), 1e-3f);
}

TEST(Svd, TransposeInvariant) {
  ts::Generator gen(9);
  ts::Tensor a = gen.normal(ts::Shape{15, 6});
  const auto sv1 = ts::singular_values(a);
  const auto sv2 = ts::singular_values(transposed(a));
  ASSERT_EQ(sv1.size(), sv2.size());
  for (size_t i = 0; i < sv1.size(); ++i) EXPECT_NEAR(sv1[i], sv2[i], 1e-3f);
}

TEST(Svd, LowRankMatrixDetected) {
  // Rank-2 matrix: outer products of two vector pairs.
  ts::Generator gen(10);
  ts::Tensor u1 = gen.normal(ts::Shape{30, 1});
  ts::Tensor v1 = gen.normal(ts::Shape{1, 20});
  ts::Tensor u2 = gen.normal(ts::Shape{30, 1});
  ts::Tensor v2 = gen.normal(ts::Shape{1, 20});
  const ts::Tensor a = ts::add(ts::matmul2d(u1, v1), ts::matmul2d(u2, v2));
  const auto sv = ts::singular_values(a);
  EXPECT_EQ(ts::effective_rank(sv, 0.999f), 2);
}

TEST(Svd, CumulativeFractionMonotoneAndEndsAtOne) {
  ts::Generator gen(11);
  const auto sv = ts::singular_values(gen.normal(ts::Shape{16, 16}));
  const auto cum = ts::cumulative_sigma_fraction(sv);
  for (size_t i = 1; i < cum.size(); ++i) EXPECT_GE(cum[i], cum[i - 1]);
  EXPECT_NEAR(cum.back(), 1.0f, 1e-5f);
}

// ---------- io ----------

TEST(Io, TensorMapRoundTrip) {
  ts::Generator gen(12);
  ts::TensorMap m;
  m.emplace("a", gen.normal(ts::Shape{3, 4}));
  m.emplace("b.weight", gen.normal(ts::Shape{7}));
  m.emplace("scalar", ts::Tensor::scalar(3.0f));
  std::stringstream ss;
  ts::write_tensor_map(ss, m);
  const ts::TensorMap back = ts::read_tensor_map(ss);
  ASSERT_EQ(back.size(), 3u);
  for (const auto& [name, t] : m) {
    ASSERT_TRUE(back.count(name)) << name;
    EXPECT_TRUE(ts::allclose(back.at(name), t, 0, 0)) << name;
  }
}

TEST(Io, TruncatedStreamThrows) {
  ts::TensorMap m;
  m.emplace("x", ts::Tensor::arange(100));
  std::stringstream ss;
  ts::write_tensor_map(ss, m);
  std::string data = ss.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data);
  EXPECT_THROW(ts::read_tensor_map(truncated), std::invalid_argument);
}

TEST(Io, BadMagicThrows) {
  std::stringstream ss;
  ss.write("\x12\x34\x56\x78" "xxxxxxxx", 12);
  EXPECT_THROW(ts::read_tensor_map(ss), std::invalid_argument);
}

// ---------- comparison helpers ----------

TEST(Compare, RelErrorAndMaxAbsDiff) {
  ts::Tensor a(ts::Shape{2}, {1.0f, 2.0f});
  ts::Tensor b(ts::Shape{2}, {1.1f, 2.0f});
  EXPECT_NEAR(ts::max_abs_diff(a, b), 0.1f, 1e-6f);
  EXPECT_NEAR(ts::rel_error(a, b), 0.1f / std::sqrt(1.1f * 1.1f + 4.0f), 1e-5f);
  EXPECT_FALSE(ts::allclose(a, b));
  EXPECT_TRUE(ts::allclose(a, b, 0.2f, 0.0f));
}

// ---------- GELU: the kernel polynomial against the libm formula ----------

namespace {

// The tanh-form GELU and its derivative through libm's tanh: the formula
// the kernel replaced, with the same constants and operation order.
float gelu_libm(float x) {
  const float u = 0.7978845608028654f * (x + 0.044715f * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(u));
}
float gelu_grad_libm(float x) {
  const float u = 0.7978845608028654f * (x + 0.044715f * x * x * x);
  const float t = std::tanh(u);
  const float du = 0.7978845608028654f * (1.0f + 3.0f * 0.044715f * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du;
}

}  // namespace

TEST(Gelu, PolynomialWithinLibmBound) {
  // Every 1e-4 over [-12, 12]: past |x| ~ 5.2 both tanh values are exactly
  // ±1, so the grid covers the whole non-saturated range.
  const int64_t n = 240001;
  ts::Tensor x{ts::Shape{n}};
  auto dx = x.data();
  for (int64_t i = 0; i < n; ++i) {
    dx[static_cast<size_t>(i)] = -12.0f + 24.0f * static_cast<float>(i) / (n - 1);
  }
  const ts::Tensor g = ts::gelu(x);
  const ts::Tensor gg = ts::gelu_grad(x);
  double worst = 0.0;
  double worst_grad = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const size_t u = static_cast<size_t>(i);
    worst = std::max(worst, std::fabs(double{g.data()[u]} - gelu_libm(dx[u])));
    worst_grad =
        std::max(worst_grad, std::fabs(double{gg.data()[u]} - gelu_grad_libm(dx[u])));
  }
  EXPECT_LE(worst, 1e-6);
  EXPECT_LE(worst_grad, 4e-6);
}

TEST(Gelu, NonFiniteAndHugeInputsMatchLibm) {
  // NaN and ±Inf reach the kernel's float-to-int step only after the clamp;
  // the sanitizer build (float-cast-overflow) traps if one ever gets there
  // unclamped. Huge |x| overflows x^3 (1e13) or x^2 (1e20) to ±Inf.
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> xs = {std::numeric_limits<float>::quiet_NaN(),
                                 -std::numeric_limits<float>::quiet_NaN(),
                                 inf, -inf, 1e13f, -1e13f, 1e20f, -1e20f,
                                 std::numeric_limits<float>::max(),
                                 -std::numeric_limits<float>::max(), 0.0f, -0.0f};
  const ts::Tensor x{ts::Shape{static_cast<int64_t>(xs.size())}, xs};
  const ts::Tensor g = ts::gelu(x);
  const ts::Tensor gg = ts::gelu_grad(x);
  for (size_t i = 0; i < xs.size(); ++i) {
    for (const auto& [got, want] : {std::pair{g.data()[i], gelu_libm(xs[i])},
                                    std::pair{gg.data()[i], gelu_grad_libm(xs[i])}}) {
      if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(got)) << "x=" << xs[i] << " got " << got;
      } else {
        EXPECT_EQ(got, want) << "x=" << xs[i];
        EXPECT_EQ(std::signbit(got), std::signbit(want)) << "x=" << xs[i];
      }
    }
  }
}
