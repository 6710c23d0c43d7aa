// Compression-library tests: wire-format exactness, algorithm semantics,
// gradient behaviour, settings registry, and error feedback.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <tuple>

#include "autograd/functions.h"
#include "compress/autoencoder.h"
#include "compress/error_feedback.h"
#include "compress/identity.h"
#include "compress/lossless.h"
#include "compress/lowrank.h"
#include "compress/quantize.h"
#include "compress/randomk.h"
#include "compress/settings.h"
#include "compress/topk.h"
#include "compress/wire.h"
#include "core/threadpool.h"
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

namespace {

/// The original selection, kept as the oracle: nth_element under
/// (|x| descending, index ascending), then the kept indices in ascending
/// order. Defined for non-NaN input only.
std::vector<int32_t> topk_oracle(const ts::Tensor& x, int64_t k) {
  const auto d = x.data();
  std::vector<int64_t> idx(d.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::nth_element(idx.begin(), idx.begin() + k, idx.end(), [&](int64_t a, int64_t b) {
    const float fa = std::fabs(d[static_cast<size_t>(a)]);
    const float fb = std::fabs(d[static_cast<size_t>(b)]);
    if (fa != fb) return fa > fb;
    return a < b;
  });
  idx.resize(static_cast<size_t>(k));
  std::sort(idx.begin(), idx.end());
  return std::vector<int32_t>(idx.begin(), idx.end());
}

/// The index plane of a Top-K body (WIRE_FORMATS.md §3.3).
std::vector<int32_t> wire_indices(const cp::CompressedMessage& m) {
  std::vector<int32_t> idx(m.body.size() / 6);
  std::memcpy(idx.data(), m.body.data(), idx.size() * 4);
  return idx;
}

/// Magnitudes from a small set, signs at random: long runs of equal keys,
/// ±x pairs, ±0, subnormals and ±Inf.
ts::Tensor tie_heavy(int64_t n, uint64_t seed) {
  const float inf = std::numeric_limits<float>::infinity();
  const float mags[] = {0.0f, std::numeric_limits<float>::denorm_min(), 1e-40f,
                        0.5f, 1.0f, 1.5f, 2.0f, inf};
  ts::Generator gen(seed);
  ts::Tensor x{ts::Shape{n}};
  for (float& v : x.data()) {
    const float m = mags[gen.randint(0, 7)];
    v = gen.bernoulli(0.5) ? -m : m;
  }
  return x;
}

}  // namespace

TEST(TopK, EncodedIndicesMatchNthElementOracle) {
  const int saved = actcomp::core::num_threads();
  for (const int64_t n : {1, 7, 65536, 131072, 131073, 524288}) {
    std::vector<double> fractions = {1.0 / static_cast<double>(n), 1.0};
    for (const cp::Setting s : {cp::Setting::kT1, cp::Setting::kT2,
                                cp::Setting::kT3, cp::Setting::kT4}) {
      fractions.push_back(cp::sparse_fraction(s));
    }
    for (const bool ties : {false, true}) {
      const ts::Tensor x = ties ? tie_heavy(n, 40 + static_cast<uint64_t>(n))
                                : random_activation(41, ts::Shape{n});
      for (const double f : fractions) {
        cp::TopKCompressor c(f);
        const std::vector<int32_t> want = topk_oracle(x, c.k_for(n));
        for (const int threads : {1, 4}) {
          actcomp::core::set_num_threads(threads);
          EXPECT_EQ(wire_indices(c.encode(x)), want)
              << "n=" << n << " k=" << c.k_for(n) << " ties=" << ties
              << " t=" << threads;
        }
      }
    }
  }
  actcomp::core::set_num_threads(saved);
}

TEST(TopK, NanMagnitudesRankAboveInfinity) {
  // Keys are |x|'s bit pattern, so both NaNs outrank both infinities; equal
  // keys (the NaN pair, the ±Inf pair) keep the lower index first.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const ts::Tensor x(ts::Shape{8}, {1.0f, nan, -inf, 3.0f, inf, -nan, 2.0f, 0.0f});
  const std::vector<std::vector<int32_t>> want = {
      {1}, {1, 5}, {1, 2, 5}, {1, 2, 4, 5}, {1, 2, 3, 4, 5}};
  for (size_t k = 1; k <= want.size(); ++k) {
    cp::TopKCompressor c(static_cast<double>(k) / 8.0);
    const cp::CompressedMessage m = c.encode(x);
    EXPECT_EQ(wire_indices(m), want[k - 1]) << "k=" << k;
    const ts::Tensor y = c.decode(m);
    EXPECT_TRUE(std::isnan(y.data()[1])) << "k=" << k;
  }
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

namespace {

float fp16_rounded(float v) {
  return ts::fp16_bits_to_fp32(ts::fp32_to_fp16_bits(v));
}

/// The quantizer's body as the original serial encoder built it
/// (WIRE_FORMATS.md §3.4): per row fp16 (lo, scale), then every code of
/// the tensor, in element order, through one LSB-first bit accumulator.
std::vector<std::byte> quant_oracle_body(const ts::Tensor& x, int bits) {
  const int64_t cols = x.shape().dim(-1);
  const int64_t rows = x.numel() / cols;
  const int levels = 1 << bits;
  const auto d = x.data();
  std::vector<std::byte> body;
  std::vector<std::pair<float, float>> params;
  for (int64_t r = 0; r < rows; ++r) {
    const auto row = d.subspan(static_cast<size_t>(r * cols), static_cast<size_t>(cols));
    const float lo = fp16_rounded(*std::min_element(row.begin(), row.end()));
    const float hi = fp16_rounded(*std::max_element(row.begin(), row.end()));
    const float scale =
        fp16_rounded(hi > lo ? (hi - lo) / static_cast<float>(levels - 1) : 0.0f);
    params.emplace_back(lo, scale);
    cp::wire::append_pod<uint16_t>(body, ts::fp32_to_fp16_bits(lo));
    cp::wire::append_pod<uint16_t>(body, ts::fp32_to_fp16_bits(scale));
  }
  uint32_t acc = 0;
  int acc_bits = 0;
  for (int64_t i = 0; i < x.numel(); ++i) {
    const auto [lo, scale] = params[static_cast<size_t>(i / cols)];
    const long q =
        scale > 0.0f
            ? std::clamp(std::lround((d[static_cast<size_t>(i)] - lo) / scale), 0l,
                         static_cast<long>(levels - 1))
            : 0l;
    acc |= static_cast<uint32_t>(q) << acc_bits;
    acc_bits += bits;
    while (acc_bits >= 8) {
      body.push_back(static_cast<std::byte>(acc & 0xFFu));
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  if (acc_bits > 0) body.push_back(static_cast<std::byte>(acc & 0xFFu));
  return body;
}

/// The original serial decoder: the accumulator refills a byte at a time
/// and each code maps to lo + q * scale.
std::vector<float> quant_oracle_decode(const std::vector<std::byte>& body,
                                       int64_t rows, int64_t cols, int bits) {
  std::vector<float> out;
  size_t off = static_cast<size_t>(rows) * 4;
  uint32_t acc = 0;
  int acc_bits = 0;
  for (int64_t i = 0; i < rows * cols; ++i) {
    const size_t p = static_cast<size_t>(i / cols) * 4;
    uint16_t lo = 0, scale = 0;
    std::memcpy(&lo, body.data() + p, 2);
    std::memcpy(&scale, body.data() + p + 2, 2);
    while (acc_bits < bits) {
      acc |= static_cast<uint32_t>(static_cast<uint8_t>(body[off++])) << acc_bits;
      acc_bits += 8;
    }
    const auto q = static_cast<float>(acc & ((1u << bits) - 1));
    acc >>= bits;
    acc_bits -= bits;
    out.push_back(ts::fp16_bits_to_fp32(lo) + q * ts::fp16_bits_to_fp32(scale));
  }
  return out;
}

}  // namespace

TEST(Quant, PackedBytesMatchSerialAccumulatorOracle) {
  // Every width, rows that start mid-byte (odd widths times odd column
  // counts), a lone partial group, and 17 rows of 1023 columns, whose
  // 17,391 codes span three parallel chunks that start mid-row.
  const int saved = actcomp::core::num_threads();
  for (int bits = 1; bits <= 8; ++bits) {
    cp::QuantizeCompressor c(bits);
    for (const int64_t cols : {1, 3, 5, 7, 8, 9, 1023, 1024}) {
      for (const int64_t rows : {1, 3, 17}) {
        if (rows == 17 && cols != 1023) continue;
        const ts::Tensor x = random_activation(
            static_cast<uint64_t>(100 * bits + cols + rows), ts::Shape{rows, cols});
        const std::vector<std::byte> want = quant_oracle_body(x, bits);
        const std::vector<float> want_x = quant_oracle_decode(want, rows, cols, bits);
        const ts::Tensor direct = c.round_trip(x);
        for (const int threads : {1, 4}) {
          actcomp::core::set_num_threads(threads);
          SCOPED_TRACE(::testing::Message() << bits << " bits, " << rows << " x "
                                            << cols << ", t=" << threads);
          const cp::CompressedMessage m = c.encode(x);
          ASSERT_EQ(m.body, want);
          const ts::Tensor y = c.decode(m);
          ASSERT_EQ(y.numel(), x.numel());
          EXPECT_EQ(std::memcmp(y.data().data(), want_x.data(), want_x.size() * 4), 0);
          EXPECT_EQ(std::memcmp(y.data().data(), direct.data().data(), want_x.size() * 4),
                    0);
          // A byte more or less is rejected before anything is allocated.
          cp::CompressedMessage bad = m;
          bad.body.push_back(std::byte{0});
          EXPECT_THROW(c.decode(bad), std::invalid_argument);
          bad.body.resize(m.body.size() - 1);
          EXPECT_THROW(c.decode(bad), std::invalid_argument);
        }
      }
    }
  }
  actcomp::core::set_num_threads(saved);
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

TEST(Wire, RandomKDecodeRejectsTrailingBytes) {
  cp::RandomKCompressor c(0.2, 31);
  const cp::CompressedMessage good =
      c.encode(random_activation(16, ts::Shape{10, 10}));
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

TEST(Wire, RandomKDecodeRejectsDuplicateAndDescendingIndices) {
  // k = 13107 > 8192: the index plane spans two parallel chunks, so the
  // pair straddling the chunk boundary is checked too.
  cp::RandomKCompressor c(0.2, 32);
  const cp::CompressedMessage good =
      c.encode(random_activation(17, ts::Shape{256, 256}));
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
  cp::CompressedMessage past_end = good;
  set_wire_index(past_end, good.body.size() / 6 - 1, 256 * 256);
  EXPECT_THROW(c.decode(past_end), std::invalid_argument);
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

namespace {

/// The three codecs whose bodies are fp16 streams (WIRE_FORMATS.md §3.1,
/// §3.2, and low-rank's r ++ P ++ Q), for activations whose last dim is 64.
std::vector<std::pair<std::string, cp::CompressorPtr>> fp16_stream_codecs() {
  ts::Generator gen(21);
  std::vector<std::pair<std::string, cp::CompressorPtr>> out;
  out.emplace_back("w/o", std::make_unique<cp::IdentityCompressor>());
  out.emplace_back("autoencoder",
                   std::make_unique<cp::AutoencoderCompressor>(64, 8, gen));
  out.emplace_back("low-rank", std::make_unique<cp::LowRankCompressor>(2, 22));
  return out;
}

}  // namespace

TEST(Wire, Fp16StreamDecodersRejectTrailingBytes) {
  const ts::Tensor x = random_activation(23, ts::Shape{16, 64});
  for (const auto& [label, c] : fp16_stream_codecs()) {
    const cp::CompressedMessage good = c->encode(x);
    EXPECT_NO_THROW(c->decode(good)) << label;
    for (const size_t extra : {1u, 2u}) {  // a stray byte; a whole fp16 value
      cp::CompressedMessage m = good;
      m.body.resize(m.body.size() + extra);
      EXPECT_THROW(c->decode(m), std::invalid_argument) << label << " +" << extra;
    }
    cp::CompressedMessage cut = good;
    cut.body.pop_back();
    EXPECT_THROW(c->decode(cut), std::invalid_argument) << label;
  }
}

TEST(Wire, Fp16StreamDecodersCheckLengthBeforeAllocating) {
  // 2^40 elements with a few body bytes: each decoder must reject the shape
  // as bad input before it sizes anything from it (no std::bad_alloc).
  for (const auto& [label, c] : fp16_stream_codecs()) {
    for (const std::vector<int64_t>& dims :
         {std::vector<int64_t>{int64_t{1} << 34, 64},
          std::vector<int64_t>{int64_t{1} << 20, int64_t{1} << 20}}) {
      cp::CompressedMessage forged;
      forged.shape_dims = dims;
      forged.body.resize(12);
      const int32_t rank = 1;  // low-rank's header
      std::memcpy(forged.body.data(), &rank, 4);
      EXPECT_THROW(c->decode(forged), std::invalid_argument)
          << label << " " << dims[0] << "x" << dims[1];
    }
  }
  // A1/A2 also require the last dim to be the hidden size they were built for.
  ts::Generator gen(24);
  cp::AutoencoderCompressor ae(64, 8, gen);
  cp::CompressedMessage wrong_dim = ae.encode(random_activation(25, ts::Shape{16, 64}));
  wrong_dim.shape_dims = {32, 32};
  EXPECT_THROW(ae.decode(wrong_dim), std::invalid_argument);
}

// ---------- pinned wire bytes ----------

namespace {

uint64_t fnv1a(const std::byte* p, size_t n) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<uint8_t>(p[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t fnv1a(const std::vector<std::byte>& v) { return fnv1a(v.data(), v.size()); }

/// FNV-1a of every codec's encoded body for one seeded [256, 1024]
/// activation, labelled. 262,144 elements is past twice the 65,536-element
/// chunk the original Top-K selection split its input into, so its chunked
/// path is the one these digests pinned. Random-K encodes twice, so the
/// second draw from the advanced generator is pinned too.
std::vector<std::pair<std::string, uint64_t>> wire_digests() {
  const int64_t hidden = 1024;
  ts::Generator gx(2024);
  const ts::Tensor x = gx.normal(ts::Shape{256, hidden}, 0.0f, 2.0f);
  std::vector<std::pair<std::string, uint64_t>> out;
  for (const cp::Setting s : cp::all_settings()) {
    ts::Generator g(77);
    const cp::CompressorPtr c = cp::make_compressor(s, hidden, g);
    const std::string label = cp::setting_label(s);
    out.emplace_back(label, fnv1a(c->encode(x).body));
    if (label[0] == 'R') out.emplace_back(label + "#2", fnv1a(c->encode(x).body));
  }
  out.emplace_back("lossless", fnv1a(cp::LosslessCompressor().encode(x).body));
  for (const auto& [label, setting, layout] :
       {std::tuple{"T3-ll", cp::Setting::kT3, cp::segments_topk()},
        std::tuple{"Q2-ll", cp::Setting::kQ2, cp::segments_quantize()}}) {
    ts::Generator g(77);
    cp::StackedCompressor c(cp::make_compressor(setting, hidden, g),
                            cp::LosslessCodec{}, layout);
    out.emplace_back(label, fnv1a(c.encode(x).body));
  }
  // The raw fp32 image: byte planes that are not fp16's.
  std::vector<std::byte> fp32(static_cast<size_t>(x.numel()) * 4);
  std::memcpy(fp32.data(), x.data().data(), fp32.size());
  for (const cp::LosslessCodec& codec : cp::standard_lossless_codecs()) {
    out.emplace_back(codec.name(), fnv1a(codec.encode(fp32)));
  }
  return out;
}

}  // namespace

TEST(Wire, EncodedBytesMatchPinnedDigests) {
  // Every codec's wire bytes, pinned when the encoders were first written.
  // A faster encoder must emit exactly these bytes, at any thread count.
  const std::vector<std::pair<std::string, uint64_t>> pinned = {
      {"w/o", 0xbe5669085ac6b7c3ull},
      {"A1", 0x6f8a93326e391846ull},
      {"A2", 0xa58ea3142c9b447aull},
      {"T1", 0x805831777bb02660ull},
      {"T2", 0x4a531d1ded79732full},
      {"T3", 0xce97b9b9488e4905ull},
      {"T4", 0x3128ba6a266eeb19ull},
      {"R1", 0xe46647a8918473c8ull},
      {"R1#2", 0x0b1984cd841044feull},
      {"R2", 0x9994b04d2e7915ddull},
      {"R2#2", 0x9bab7aa9954779ecull},
      {"R3", 0xb89a55a12f2bbdf1ull},
      {"R3#2", 0xbc1e69596ee23044ull},
      {"R4", 0x87259e1e0b9f7558ull},
      {"R4#2", 0xd59be8dc20e64349ull},
      {"Q1", 0x1b8e24cf7a67a373ull},
      {"Q2", 0x8c72e8bc905274c4ull},
      {"Q3", 0xf1b07b2c20246d58ull},
      {"lossless", 0x4cd6778f193c54f1ull},
      {"T3-ll", 0x29692c5f96c19428ull},
      {"Q2-ll", 0xb70d9213898b3e8cull},
      {"rle/bp2", 0xc3ff6a0082a90981ull},
      {"huffman/bp2", 0x26204356cfb8f06eull},
      {"rle+huffman/bp2", 0xcb5cf6aeae71948bull},
      {"rle+huffman/bp4", 0x17fb77e1a4455d75ull},
  };
  const int saved = actcomp::core::num_threads();
  for (const int threads : {1, 4}) {
    actcomp::core::set_num_threads(threads);
    const auto got = wire_digests();
    ASSERT_EQ(got.size(), pinned.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].first, pinned[i].first);
      EXPECT_EQ(got[i].second, pinned[i].second)
          << "{\"" << got[i].first << "\", 0x" << std::hex << got[i].second
          << "ull}, t=" << std::dec << threads;
    }
  }
  actcomp::core::set_num_threads(saved);
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
