// Compression-library tests: wire-format exactness, algorithm semantics,
// gradient behaviour, settings registry, and error feedback.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "autograd/functions.h"
#include "compress/autoencoder.h"
#include "compress/error_feedback.h"
#include "compress/identity.h"
#include "compress/quantize.h"
#include "compress/randomk.h"
#include "compress/settings.h"
#include "compress/topk.h"
#include "tensor/fp16.h"
#include "tensor/ops.h"
#include "tensor/random.h"

namespace cp = actcomp::compress;
namespace ts = actcomp::tensor;
namespace ag = actcomp::autograd;

namespace {
ts::Tensor random_activation(uint64_t seed, ts::Shape shape = ts::Shape{4, 8, 32}) {
  ts::Generator gen(seed);
  return gen.normal(std::move(shape), 0.0f, 2.0f);
}
}  // namespace

// ---------- identity ----------

TEST(Identity, RoundTripIsFp16) {
  cp::IdentityCompressor c;
  const ts::Tensor x = random_activation(1);
  EXPECT_TRUE(ts::allclose(c.round_trip(x), ts::fp16_round(x), 0, 0));
}

TEST(Identity, WireSizeIsTwoBytesPerElement) {
  cp::IdentityCompressor c;
  EXPECT_EQ(c.wire_size(ts::Shape{4, 8, 32}).total_bytes(), 4 * 8 * 32 * 2);
  EXPECT_TRUE(c.allreduce_compatible());
}

TEST(Identity, ApplyIsExactIdentityOnTape) {
  cp::IdentityCompressor c;
  ag::Variable x = ag::Variable::leaf(random_activation(2), true);
  EXPECT_TRUE(c.apply(x).same_node(x));
}

// ---------- top-k ----------

TEST(TopK, KeepsLargestMagnitudes) {
  cp::TopKCompressor c(0.25);
  ts::Tensor x(ts::Shape{8}, {-10, 1, 2, -3, 9, 0.5f, -0.1f, 4});
  const ts::Tensor y = c.round_trip(x);
  // k = 2: keeps -10 and 9.
  EXPECT_FLOAT_EQ(y.at({0}), -10.0f);
  EXPECT_FLOAT_EQ(y.at({4}), 9.0f);
  float nonzero = 0;
  for (float v : y.data()) nonzero += v != 0.0f;
  EXPECT_EQ(nonzero, 2.0f);
}

TEST(TopK, KForCounts) {
  cp::TopKCompressor c(0.1);
  EXPECT_EQ(c.k_for(100), 10);
  EXPECT_EQ(c.k_for(5), 1);   // clamped to >= 1
  EXPECT_EQ(c.k_for(0), 0);
}

TEST(TopK, InvalidFractionThrows) {
  EXPECT_THROW(cp::TopKCompressor(0.0), std::invalid_argument);
  EXPECT_THROW(cp::TopKCompressor(1.5), std::invalid_argument);
}

TEST(TopK, GradientIsMasked) {
  cp::TopKCompressor c(0.25);
  ts::Tensor xv(ts::Shape{8}, {-10, 1, 2, -3, 9, 0.5f, -0.1f, 4});
  ag::Variable x = ag::Variable::leaf(xv, true);
  ag::Variable y = c.apply(x);
  y.backward(ts::Tensor::ones(ts::Shape{8}));
  const auto g = x.grad().data();
  EXPECT_FLOAT_EQ(g[0], 1.0f);
  EXPECT_FLOAT_EQ(g[4], 1.0f);
  for (size_t i : {1u, 2u, 3u, 5u, 6u, 7u}) EXPECT_FLOAT_EQ(g[i], 0.0f);
}

// ---------- random-k ----------

TEST(RandomK, KeepsExactlyKElements) {
  cp::RandomKCompressor c(0.25, 99);
  const ts::Tensor x = ts::Tensor::ones(ts::Shape{100});
  const ts::Tensor y = c.round_trip(x);
  float kept = 0;
  for (float v : y.data()) kept += v != 0.0f;
  EXPECT_EQ(kept, 25.0f);
}

TEST(RandomK, SelectionIsUnbiasedAcrossCalls) {
  cp::RandomKCompressor c(0.2, 7);
  std::vector<int> hit(50, 0);
  for (int rep = 0; rep < 500; ++rep) {
    const ts::Tensor y = c.round_trip(ts::Tensor::ones(ts::Shape{50}));
    const auto d = y.data();
    for (size_t i = 0; i < d.size(); ++i) hit[i] += d[i] != 0.0f;
  }
  for (int h : hit) EXPECT_NEAR(h, 100, 45);  // 500 * 0.2
}

TEST(RandomK, ApplyGradientMatchesForwardMask) {
  cp::RandomKCompressor c(0.3, 11);
  ag::Variable x = ag::Variable::leaf(ts::Tensor::ones(ts::Shape{40}), true);
  ag::Variable y = c.apply(x);
  y.backward(ts::Tensor::ones(ts::Shape{40}));
  const auto yv = y.value().data();
  const auto g = x.grad().data();
  for (size_t i = 0; i < yv.size(); ++i) {
    EXPECT_FLOAT_EQ(g[i], yv[i] != 0.0f ? 1.0f : 0.0f) << i;
  }
}

// ---------- quantization ----------

class QuantBits : public ::testing::TestWithParam<int> {};

TEST_P(QuantBits, ErrorBoundedByHalfStep) {
  cp::QuantizeCompressor c(GetParam());
  const ts::Tensor x = random_activation(3, ts::Shape{6, 16});
  const ts::Tensor y = c.round_trip(x);
  const int levels = 1 << GetParam();
  for (int64_t r = 0; r < 6; ++r) {
    float lo = x.at({r, 0}), hi = lo;
    for (int64_t col = 0; col < 16; ++col) {
      lo = std::min(lo, x.at({r, col}));
      hi = std::max(hi, x.at({r, col}));
    }
    const float step = (hi - lo) / static_cast<float>(levels - 1);
    for (int64_t col = 0; col < 16; ++col) {
      EXPECT_LE(std::fabs(y.at({r, col}) - x.at({r, col})), step * 0.51f + 1e-3f);
    }
  }
}

TEST_P(QuantBits, EncodeDecodeMatchesRoundTrip) {
  cp::QuantizeCompressor c(GetParam());
  ts::Tensor x = random_activation(4, ts::Shape{5, 12});
  const ts::Tensor via_wire = c.decode(c.encode(x));
  const ts::Tensor direct = c.round_trip(x);
  EXPECT_TRUE(ts::allclose(via_wire, direct, 1e-5f, 1e-5f));
}

TEST_P(QuantBits, WireSizeMatchesEncodedBytes) {
  cp::QuantizeCompressor c(GetParam());
  ts::Tensor x = random_activation(5, ts::Shape{3, 7, 13});
  EXPECT_EQ(c.wire_size(x.shape()).total_bytes(), c.encode(x).body_bytes());
}

INSTANTIATE_TEST_SUITE_P(Bits, QuantBits, ::testing::Values(1, 2, 3, 4, 8));

TEST(Quant, MoreBitsMeansLessError) {
  const ts::Tensor x = random_activation(6, ts::Shape{8, 64});
  double prev = 1e9;
  for (int bits : {2, 4, 8}) {
    cp::QuantizeCompressor c(bits);
    const double err = ts::rel_error(c.round_trip(x), x);
    EXPECT_LT(err, prev) << bits;
    prev = err;
  }
}

TEST(Quant, ConstantRowIsExact) {
  cp::QuantizeCompressor c(2);
  ts::Tensor x = ts::Tensor::full(ts::Shape{2, 8}, 3.5f);
  EXPECT_TRUE(ts::allclose(c.round_trip(x), x, 1e-3f, 1e-3f));
}

TEST(Quant, EightBitNearLossless) {
  cp::QuantizeCompressor c(8);
  const ts::Tensor x = random_activation(7, ts::Shape{4, 128});
  EXPECT_LT(ts::rel_error(c.round_trip(x), x), 0.01f);
}

TEST(Quant, InvalidBitsThrows) {
  EXPECT_THROW(cp::QuantizeCompressor(0), std::invalid_argument);
  EXPECT_THROW(cp::QuantizeCompressor(9), std::invalid_argument);
}

TEST(Quant, StraightThroughGradient) {
  cp::QuantizeCompressor c(4);
  ag::Variable x = ag::Variable::leaf(random_activation(8, ts::Shape{2, 8}), true);
  ag::Variable y = c.apply(x);
  y.backward(ts::Tensor::full(ts::Shape{2, 8}, 2.0f));
  for (float g : x.grad().data()) EXPECT_FLOAT_EQ(g, 2.0f);
}

// ---------- wire exactness across all sparse formats ----------

TEST(Wire, TopKWireSizeMatchesEncodedBytes) {
  cp::TopKCompressor c(0.1);
  ts::Tensor x = random_activation(9, ts::Shape{4, 50});
  EXPECT_EQ(c.wire_size(x.shape()).total_bytes(), c.encode(x).body_bytes());
}

TEST(Wire, RandomKWireSizeMatchesEncodedBytes) {
  cp::RandomKCompressor c(0.17, 5);
  ts::Tensor x = random_activation(10, ts::Shape{7, 31});
  EXPECT_EQ(c.wire_size(x.shape()).total_bytes(), c.encode(x).body_bytes());
}

TEST(Wire, IdentityWireSizeMatchesEncodedBytes) {
  cp::IdentityCompressor c;
  ts::Tensor x = random_activation(11, ts::Shape{3, 9});
  EXPECT_EQ(c.wire_size(x.shape()).total_bytes(), c.encode(x).body_bytes());
}

TEST(Wire, TopKDecodeEncodeRecoversKept) {
  cp::TopKCompressor c(0.2);
  ts::Tensor x = random_activation(12, ts::Shape{10, 10});
  const ts::Tensor via = c.decode(c.encode(x));
  EXPECT_TRUE(ts::allclose(via, c.round_trip(x), 0, 0));
}

// ---------- hostile wire input (WIRE_FORMATS.md §3.3, §3.4) ----------

namespace {
int32_t wire_index(const cp::CompressedMessage& m, size_t i) {
  int32_t j = 0;
  std::memcpy(&j, m.body.data() + 4 * i, 4);
  return j;
}
void set_wire_index(cp::CompressedMessage& m, size_t i, int32_t j) {
  std::memcpy(m.body.data() + 4 * i, &j, 4);
}
}  // namespace

TEST(Wire, TopKDecodeRejectsTrailingBytes) {
  cp::TopKCompressor c(0.2);
  const cp::CompressedMessage good =
      c.encode(random_activation(13, ts::Shape{10, 10}));
  EXPECT_NO_THROW(c.decode(good));
  for (const size_t extra : {1u, 6u}) {  // a stray byte; a whole extra pair
    cp::CompressedMessage m = good;
    m.body.resize(m.body.size() + extra);
    EXPECT_THROW(c.decode(m), std::invalid_argument) << extra << " extra bytes";
  }
  cp::CompressedMessage cut = good;
  cut.body.pop_back();
  EXPECT_THROW(c.decode(cut), std::invalid_argument);
}

TEST(Wire, TopKDecodeRejectsDuplicateAndDescendingIndices) {
  // 256x256 at f = 0.2 keeps k = 13107 > 8192 elements, so the index plane
  // spans two parallel chunks and the boundary pair is checked too.
  cp::TopKCompressor c(0.2);
  const cp::CompressedMessage good =
      c.encode(random_activation(14, ts::Shape{256, 256}));
  ASSERT_GT(good.body.size() / 6, 8193u);
  EXPECT_NO_THROW(c.decode(good));
  for (const size_t i : {1u, 8192u}) {
    cp::CompressedMessage dup = good;
    set_wire_index(dup, i, wire_index(good, i - 1));
    EXPECT_THROW(c.decode(dup), std::invalid_argument) << "duplicate at " << i;
    cp::CompressedMessage swapped = good;
    set_wire_index(swapped, i - 1, wire_index(good, i));
    set_wire_index(swapped, i, wire_index(good, i - 1));
    EXPECT_THROW(c.decode(swapped), std::invalid_argument)
        << "descending at " << i;
  }
}

TEST(Wire, QuantizeDecodeRequiresExactBodyLength) {
  // Byte-aligned rows (4 bits x 32 cols) and rows that straddle bytes
  // (3 bits x 7 cols) take different decode paths; both check the length.
  for (const auto& [bits, shape] :
       {std::pair{4, ts::Shape{6, 32}}, std::pair{3, ts::Shape{5, 7}}}) {
    SCOPED_TRACE(bits);
    cp::QuantizeCompressor c(bits);
    const ts::Tensor x = random_activation(15, shape);
    const cp::CompressedMessage good = c.encode(x);
    EXPECT_TRUE(ts::allclose(c.decode(good), c.round_trip(x), 0, 0));
    cp::CompressedMessage trailing = good;
    trailing.body.push_back(std::byte{0});
    EXPECT_THROW(c.decode(trailing), std::invalid_argument);
    cp::CompressedMessage cut = good;
    cut.body.pop_back();
    EXPECT_THROW(c.decode(cut), std::invalid_argument);
  }
}

TEST(Wire, QuantizeDecodeChecksLengthBeforeAllocating) {
  // Forged shapes with an 8-byte body must be rejected as bad input: 2^62
  // elements must never reach the allocation, and 2^64 must not wrap to an
  // empty tensor that claims a huge shape.
  cp::QuantizeCompressor c(4);
  for (const int log2_dim : {31, 32}) {
    cp::CompressedMessage forged;
    forged.shape_dims = {int64_t{1} << log2_dim, int64_t{1} << log2_dim};
    forged.body.resize(8);
    EXPECT_THROW(c.decode(forged), std::invalid_argument) << log2_dim;
  }
}

// ---------- autoencoder ----------

TEST(Autoencoder, ShapesAndWireSize) {
  ts::Generator gen(13);
  cp::AutoencoderCompressor c(32, 8, gen);
  const ts::Tensor x = random_activation(14, ts::Shape{2, 4, 32});
  EXPECT_EQ(c.wire_size(x.shape()).total_bytes(), 2 * 4 * 8 * 2);
  EXPECT_EQ(c.encode(x).body_bytes(), 2 * 4 * 8 * 2);
  EXPECT_EQ(c.round_trip(x).shape(), x.shape());
  EXPECT_TRUE(c.allreduce_compatible());
  EXPECT_EQ(c.parameters().size(), 2u);
}

TEST(Autoencoder, RejectsBadDims) {
  ts::Generator gen(15);
  EXPECT_THROW(cp::AutoencoderCompressor(32, 32, gen), std::invalid_argument);
  EXPECT_THROW(cp::AutoencoderCompressor(32, 0, gen), std::invalid_argument);
}

TEST(Autoencoder, WrongLastDimThrows) {
  ts::Generator gen(16);
  cp::AutoencoderCompressor c(32, 8, gen);
  EXPECT_THROW(c.encode(random_activation(17, ts::Shape{2, 16})),
               std::invalid_argument);
}

TEST(Autoencoder, CodecIsTrainable) {
  // Gradient descent on reconstruction error must reduce it: the property
  // that makes AEs viable for model parallelism (paper §2.2, challenge 3).
  ts::Generator gen(18);
  cp::AutoencoderCompressor c(16, 8, gen);
  // Data living in an 8-dimensional subspace of R^16 — perfectly codable.
  const ts::Tensor basis = gen.normal(ts::Shape{8, 16});
  auto sample = [&]() {
    return ts::matmul2d(gen.normal(ts::Shape{32, 8}), basis);
  };
  auto recon_error = [&](const ts::Tensor& x) {
    ag::NoGradGuard ng;
    return ts::rel_error(c.round_trip(x), x);
  };
  const float before = recon_error(sample());
  for (int step = 0; step < 300; ++step) {
    const ts::Tensor x = sample();
    ag::Variable xv = ag::Variable::leaf(x);
    ag::Variable y = c.apply(xv);
    ag::Variable loss = ag::mse_loss(y, x);
    loss.backward();
    for (auto& p : c.parameters()) {
      auto w = p.mutable_value().data();
      const auto g = p.grad().data();
      for (size_t i = 0; i < w.size(); ++i) w[i] -= 0.05f * g[i];
      p.zero_grad();
    }
  }
  const float after = recon_error(sample());
  EXPECT_LT(after, before * 0.5f);
  EXPECT_LT(after, 0.25f);
}

TEST(Autoencoder, ApplyGradientFlowsToInputAndWeights) {
  ts::Generator gen(19);
  cp::AutoencoderCompressor c(16, 4, gen);
  ag::Variable x = ag::Variable::leaf(random_activation(20, ts::Shape{3, 16}), true);
  ag::Variable y = c.apply(x);
  ag::Variable loss = ag::mse_loss(y, ts::Tensor::zeros(ts::Shape{3, 16}));
  loss.backward();
  EXPECT_TRUE(x.has_grad());
  for (auto& p : c.parameters()) EXPECT_TRUE(p.has_grad());
}

TEST(Autoencoder, SetWeightsRoundTrip) {
  ts::Generator gen(21);
  cp::AutoencoderCompressor a(16, 4, gen), b(16, 4, gen);
  b.set_weights(a.encoder_weight().value(), a.decoder_weight().value());
  const ts::Tensor x = random_activation(22, ts::Shape{2, 16});
  EXPECT_TRUE(ts::allclose(a.round_trip(x), b.round_trip(x), 0, 0));
}

// ---------- error feedback ----------

TEST(ErrorFeedback, ResidualIsCompressionError) {
  auto ef = cp::ErrorFeedbackCompressor(std::make_unique<cp::TopKCompressor>(0.25));
  const ts::Tensor x = random_activation(23, ts::Shape{16});
  const ts::Tensor y = ef.round_trip(x);
  EXPECT_TRUE(ts::allclose(ef.residual(), ts::sub(x, y), 1e-6f, 1e-6f));
}

TEST(ErrorFeedback, CarriesResidualForward) {
  auto ef = cp::ErrorFeedbackCompressor(std::make_unique<cp::TopKCompressor>(0.5));
  ts::Tensor x(ts::Shape{4}, {10, 1, 10, 1});
  (void)ef.round_trip(x);  // drops the two 1s into the residual
  // Second step: residual (0,1,0,1) + x makes the small coordinates win.
  ts::Tensor x2(ts::Shape{4}, {0.1f, 1, 0.1f, 1});
  const ts::Tensor y2 = ef.round_trip(x2);
  EXPECT_FLOAT_EQ(y2.at({1}), 2.0f);
  EXPECT_FLOAT_EQ(y2.at({3}), 2.0f);
}

TEST(ErrorFeedback, LongRunAverageErrorSmallerThanPlain) {
  // EF's defining property: time-averaged reconstruction tracks the signal.
  ts::Generator gen(24);
  auto plain = cp::TopKCompressor(0.1);
  auto ef = cp::ErrorFeedbackCompressor(std::make_unique<cp::TopKCompressor>(0.1));
  const ts::Tensor x = gen.uniform(ts::Shape{64}, 0.5f, 1.5f);  // all positive
  ts::Tensor sum_plain{ts::Shape{64}}, sum_ef{ts::Shape{64}};
  const int steps = 30;
  for (int i = 0; i < steps; ++i) {
    sum_plain = ts::add(sum_plain, plain.round_trip(x));
    sum_ef = ts::add(sum_ef, ef.round_trip(x));
  }
  const ts::Tensor target = ts::mul_scalar(x, static_cast<float>(steps));
  EXPECT_LT(ts::rel_error(sum_ef, target), ts::rel_error(sum_plain, target) * 0.5f);
}

TEST(ErrorFeedback, ResetOnShapeChange) {
  auto ef = cp::ErrorFeedbackCompressor(std::make_unique<cp::TopKCompressor>(0.5));
  (void)ef.round_trip(random_activation(25, ts::Shape{8}));
  // Different shape: must not blend the stale residual.
  const ts::Tensor x = random_activation(26, ts::Shape{12});
  EXPECT_NO_THROW(ef.round_trip(x));
  EXPECT_EQ(ef.residual().shape(), x.shape());
}

TEST(ErrorFeedback, DelegatesWireAndCompatibility) {
  auto ef = cp::ErrorFeedbackCompressor(std::make_unique<cp::QuantizeCompressor>(4));
  const ts::Shape s{4, 16};
  cp::QuantizeCompressor q(4);
  EXPECT_EQ(ef.wire_size(s).total_bytes(), q.wire_size(s).total_bytes());
  EXPECT_FALSE(ef.allreduce_compatible());
}

// ---------- settings registry (Table 1) ----------

TEST(Settings, LabelsRoundTrip) {
  for (cp::Setting s : cp::all_settings()) {
    const auto parsed = cp::parse_setting(cp::setting_label(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(cp::parse_setting("Z9").has_value());
}

TEST(Settings, SparseFractionsMatchCalibration) {
  // Same-ratio settings keep e/1024 of the elements.
  EXPECT_NEAR(cp::sparse_fraction(cp::Setting::kT3), 50.0 / 1024, 1e-9);
  EXPECT_NEAR(cp::sparse_fraction(cp::Setting::kT4), 100.0 / 1024, 1e-9);
  // Same-comm settings keep 1/3 of that (6 wire bytes vs 2).
  EXPECT_NEAR(cp::sparse_fraction(cp::Setting::kT1), 50.0 / (3 * 1024), 1e-9);
  EXPECT_NEAR(cp::sparse_fraction(cp::Setting::kR2), 100.0 / (3 * 1024), 1e-9);
  EXPECT_THROW(cp::sparse_fraction(cp::Setting::kA1), std::invalid_argument);
}

TEST(Settings, SameCommCalibrationHolds) {
  // T1's wire bytes equal A1's wire bytes on the same tensor (within the
  // rounding of k).
  const int64_t h = 1024;
  ts::Generator gen(27);
  auto a1 = cp::make_compressor(cp::Setting::kA1, h, gen);
  auto t1 = cp::make_compressor(cp::Setting::kT1, h, gen);
  const ts::Shape shape{8, 32, h};
  const double ae_bytes = static_cast<double>(a1->wire_size(shape).total_bytes());
  const double tk_bytes = static_cast<double>(t1->wire_size(shape).total_bytes());
  EXPECT_NEAR(tk_bytes / ae_bytes, 1.0, 0.02);
}

TEST(Settings, SameRatioCalibrationHolds) {
  // T3 keeps as many elements as A1's code has.
  const int64_t h = 1024;
  cp::TopKCompressor t3(cp::sparse_fraction(cp::Setting::kT3));
  EXPECT_EQ(t3.k_for(8 * 32 * h), 8 * 32 * 50);
}

TEST(Settings, AeCodeSizeScalesWithHidden) {
  EXPECT_EQ(cp::ae_code_size(cp::Setting::kA1, 1024), 50);
  EXPECT_EQ(cp::ae_code_size(cp::Setting::kA2, 1024), 100);
  EXPECT_EQ(cp::ae_code_size(cp::Setting::kA1, 128), 6);   // 50 * 128/1024
  EXPECT_EQ(cp::ae_code_size(cp::Setting::kA2, 128), 13);  // round(12.5)
  EXPECT_GE(cp::ae_code_size(cp::Setting::kA1, 16), 1);    // clamped
}

TEST(Settings, QuantBits) {
  EXPECT_EQ(cp::quant_bits(cp::Setting::kQ1), 2);
  EXPECT_EQ(cp::quant_bits(cp::Setting::kQ2), 4);
  EXPECT_EQ(cp::quant_bits(cp::Setting::kQ3), 8);
  EXPECT_THROW(cp::quant_bits(cp::Setting::kT1), std::invalid_argument);
}

TEST(Settings, FactoryProducesWorkingCompressors) {
  ts::Generator gen(28);
  const ts::Tensor x = random_activation(29, ts::Shape{2, 4, 64});
  for (cp::Setting s : cp::all_settings()) {
    auto c = cp::make_compressor(s, 64, gen);
    ASSERT_NE(c, nullptr) << cp::setting_label(s);
    const ts::Tensor y = c->round_trip(x);
    EXPECT_EQ(y.shape(), x.shape()) << cp::setting_label(s);
    EXPECT_EQ(c->wire_size(x.shape()).total_bytes(), c->encode(x).body_bytes())
        << cp::setting_label(s);
  }
}

TEST(Settings, CompressionActuallyCompresses) {
  // Every non-baseline setting must shrink the message.
  ts::Generator gen(30);
  const ts::Shape shape{4, 16, 128};
  const int64_t raw = cp::fp16_bytes(shape);
  for (cp::Setting s : cp::all_settings()) {
    if (s == cp::Setting::kBaseline) continue;
    auto c = cp::make_compressor(s, 128, gen);
    EXPECT_LT(c->wire_size(shape).total_bytes(), raw) << cp::setting_label(s);
  }
}

TEST(Settings, AccuracyOrderingOnStructuredData) {
  // On a non-sparse activation (the paper's Fig. 2 point), quantization at 8
  // bits reconstructs far better than Top-K at the same-ratio setting.
  const ts::Tensor x = random_activation(31, ts::Shape{16, 128});
  ts::Generator gen(32);
  auto q3 = cp::make_compressor(cp::Setting::kQ3, 128, gen);
  auto t3 = cp::make_compressor(cp::Setting::kT3, 128, gen);
  EXPECT_LT(ts::rel_error(q3->round_trip(x), x),
            ts::rel_error(t3->round_trip(x), x) * 0.25f);
}
