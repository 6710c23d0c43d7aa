// Unit and property tests for the tensor substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>
#include <sstream>

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
  EXPECT_TRUE(ts::allclose(ts::add_scalar(a, 1.0f), ts::Tensor(ts::Shape{2}, {5, 10})));
  EXPECT_TRUE(ts::allclose(ts::sub(a, a), ts::Tensor::zeros(ts::Shape{2})));
  EXPECT_TRUE(ts::allclose(ts::div(a, a), ts::Tensor::ones(ts::Shape{2})));
}

TEST(Ops, UnaryFunctions) {
  ts::Tensor a(ts::Shape{3}, {-1.0f, 0.0f, 1.0f});
  EXPECT_TRUE(ts::allclose(ts::relu(a), ts::Tensor(ts::Shape{3}, {0, 0, 1})));
  EXPECT_TRUE(ts::allclose(ts::abs(a), ts::Tensor(ts::Shape{3}, {1, 0, 1})));
  EXPECT_TRUE(ts::allclose(ts::neg(a), ts::Tensor(ts::Shape{3}, {1, 0, -1})));
  EXPECT_NEAR(ts::sigmoid(a).at({1}), 0.5f, 1e-6f);
  EXPECT_NEAR(ts::exp(a).at({2}), std::exp(1.0f), 1e-5f);
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

TEST(Ops, MatmulBatched3x3) {
  ts::Generator gen(2);
  ts::Tensor a = gen.normal(ts::Shape{2, 3, 4});
  ts::Tensor b = gen.normal(ts::Shape{2, 4, 5});
  const ts::Tensor c = ts::matmul(a, b);
  ASSERT_EQ(c.shape(), (ts::Shape{2, 3, 5}));
  for (int64_t batch = 0; batch < 2; ++batch) {
    for (int64_t i = 0; i < 3; ++i) {
      for (int64_t j = 0; j < 5; ++j) {
        double acc = 0;
        for (int64_t k = 0; k < 4; ++k) acc += a.at({batch, i, k}) * b.at({batch, k, j});
        EXPECT_NEAR(c.at({batch, i, j}), acc, 1e-4f);
      }
    }
  }
}

TEST(Ops, MatmulAssociativityWithIdentity) {
  ts::Generator gen(3);
  ts::Tensor a = gen.normal(ts::Shape{4, 4});
  ts::Tensor eye{ts::Shape{4, 4}};
  for (int64_t i = 0; i < 4; ++i) eye.at({i, i}) = 1.0f;
  EXPECT_TRUE(ts::allclose(ts::matmul2d(a, eye), a, 1e-5f, 1e-6f));
  EXPECT_TRUE(ts::allclose(ts::matmul2d(eye, a), a, 1e-5f, 1e-6f));
}

// ---------- permute / structure ----------

TEST(Ops, TransposeLast2) {
  ts::Tensor a(ts::Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  const ts::Tensor t = ts::transpose_last2(a);
  ASSERT_EQ(t.shape(), (ts::Shape{3, 2}));
  EXPECT_EQ(t.at({0, 1}), 4.0f);
  EXPECT_EQ(t.at({2, 0}), 3.0f);
}

TEST(Ops, PermuteRoundTrip) {
  ts::Generator gen(4);
  ts::Tensor a = gen.normal(ts::Shape{2, 3, 4, 5});
  const ts::Tensor p = ts::permute(a, {2, 0, 3, 1});
  ASSERT_EQ(p.shape(), (ts::Shape{4, 2, 5, 3}));
  const ts::Tensor back = ts::permute(p, {1, 3, 0, 2});
  EXPECT_TRUE(ts::allclose(back, a));
}

TEST(Ops, PermuteInvalidAxesThrows) {
  ts::Tensor a{ts::Shape{2, 3}};
  EXPECT_THROW(ts::permute(a, {0, 0}), std::invalid_argument);
  EXPECT_THROW(ts::permute(a, {0}), std::invalid_argument);
}

TEST(Ops, ConcatSliceLastRoundTrip) {
  ts::Generator gen(5);
  ts::Tensor a = gen.normal(ts::Shape{2, 3});
  ts::Tensor b = gen.normal(ts::Shape{2, 5});
  const ts::Tensor cat = ts::concat_last({a, b});
  ASSERT_EQ(cat.shape(), (ts::Shape{2, 8}));
  EXPECT_TRUE(ts::allclose(ts::slice_last(cat, 0, 3), a));
  EXPECT_TRUE(ts::allclose(ts::slice_last(cat, 3, 5), b));
}

TEST(Ops, SliceOutOfRangeThrows) {
  ts::Tensor a{ts::Shape{2, 3}};
  EXPECT_THROW(ts::slice_last(a, 2, 2), std::invalid_argument);
}

// ---------- reductions / softmax ----------

TEST(Ops, Reductions) {
  ts::Tensor a(ts::Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(ts::sum_all(a), 21.0f);
  EXPECT_FLOAT_EQ(ts::mean_all(a), 3.5f);
  EXPECT_FLOAT_EQ(ts::max_all(a), 6.0f);
  EXPECT_TRUE(ts::allclose(ts::sum_last(a), ts::Tensor(ts::Shape{2}, {6, 15})));
  EXPECT_TRUE(ts::allclose(ts::sum_to_last(a), ts::Tensor(ts::Shape{3}, {5, 7, 9})));
}

TEST(Ops, ArgmaxLast) {
  ts::Tensor a(ts::Shape{2, 3}, {1, 9, 3, 7, 2, 6});
  const ts::Tensor am = ts::argmax_last(a);
  EXPECT_EQ(am.at({0}), 1.0f);
  EXPECT_EQ(am.at({1}), 0.0f);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  ts::Generator gen(6);
  ts::Tensor a = gen.normal(ts::Shape{5, 7}, 0.0f, 3.0f);
  const ts::Tensor s = ts::softmax_last(a);
  for (int64_t r = 0; r < 5; ++r) {
    double sum = 0;
    for (int64_t c = 0; c < 7; ++c) {
      const float v = s.at({r, c});
      EXPECT_GE(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Ops, SoftmaxNumericallyStableForLargeLogits) {
  ts::Tensor a(ts::Shape{1, 3}, {1000.0f, 1000.0f, 1000.0f});
  const ts::Tensor s = ts::softmax_last(a);
  for (int64_t c = 0; c < 3; ++c) EXPECT_NEAR(s.at({0, c}), 1.0f / 3, 1e-6f);
}

TEST(Ops, LogSoftmaxConsistentWithSoftmax) {
  ts::Generator gen(7);
  ts::Tensor a = gen.normal(ts::Shape{4, 6});
  const ts::Tensor ls = ts::log_softmax_last(a);
  const ts::Tensor s = ts::softmax_last(a);
  EXPECT_TRUE(ts::allclose(ts::exp(ls), s, 1e-4f, 1e-5f));
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
  const auto sv2 = ts::singular_values(ts::transpose_last2(a));
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
