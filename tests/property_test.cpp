// Property-based suites (parameterized sweeps) over the library's core
// invariants: algebraic identities of the tensor kernels, idempotence and
// monotonicity of the compressors, and scheduling bounds of the pipeline
// simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "compress/error_feedback.h"
#include "compress/lossless.h"
#include "compress/wire.h"
#include "compress/quantize.h"
#include "compress/randomk.h"
#include "compress/settings.h"
#include "compress/topk.h"
#include "sim/pipeline.h"
#include "tensor/ops.h"
#include "tensor/random.h"

namespace ts = actcomp::tensor;
namespace cp = actcomp::compress;
namespace sm = actcomp::sim;

// ---------- tensor algebra ----------

class TensorAlgebra : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TensorAlgebra, MatmulDistributesOverAddition) {
  ts::Generator gen(GetParam());
  const ts::Tensor a = gen.normal(ts::Shape{5, 7});
  const ts::Tensor b = gen.normal(ts::Shape{5, 7});
  const ts::Tensor c = gen.normal(ts::Shape{7, 4});
  const ts::Tensor lhs = ts::matmul2d(ts::add(a, b), c);
  const ts::Tensor rhs = ts::add(ts::matmul2d(a, c), ts::matmul2d(b, c));
  EXPECT_LT(ts::rel_error(lhs, rhs), 1e-5f);
}

TEST_P(TensorAlgebra, TransposeReversesMatmul) {
  // (AB)^T == B^T A^T, the right side reading both operands transposed in
  // place.
  ts::Generator gen(GetParam() + 100);
  const ts::Tensor a = gen.normal(ts::Shape{4, 6});
  const ts::Tensor b = gen.normal(ts::Shape{6, 3});
  const ts::Tensor ab = ts::matmul2d(a, b);
  const ts::Tensor rhs = ts::matmul2d(b, a, /*trans_a=*/true, /*trans_b=*/true);
  ASSERT_EQ(rhs.shape(), (ts::Shape{3, 4}));
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(ab.at({i, j}), rhs.at({j, i}), 1e-5f * (1.0f + std::fabs(ab.at({i, j}))));
    }
  }
}

TEST_P(TensorAlgebra, SoftmaxIsShiftInvariant) {
  // log_softmax(x + c) == log_softmax(x), so the softmax is too.
  ts::Generator gen(GetParam() + 200);
  const ts::Tensor a = gen.normal(ts::Shape{6, 9}, 0.0f, 3.0f);
  const ts::Tensor shifted = ts::add(a, ts::Tensor::full(a.shape(), 123.0f));
  EXPECT_LT(ts::max_abs_diff(ts::log_softmax_last(a), ts::log_softmax_last(shifted)),
            1e-4f);
}

TEST_P(TensorAlgebra, SumDecomposesOverSlices) {
  ts::Generator gen(GetParam() + 300);
  const ts::Tensor a = gen.normal(ts::Shape{4, 10});
  // Columns [start, start + len) of every row, copied out.
  const auto columns = [&](int64_t start, int64_t len) {
    ts::Tensor out{ts::Shape{4, len}};
    for (int64_t r = 0; r < 4; ++r) {
      for (int64_t c = 0; c < len; ++c) out.at({r, c}) = a.at({r, start + c});
    }
    return out;
  };
  const float whole = ts::sum_all(a);
  const float parts = ts::sum_all(columns(0, 3)) + ts::sum_all(columns(3, 7));
  EXPECT_NEAR(whole, parts, 1e-4f);
}

TEST_P(TensorAlgebra, PermuteIsNormPreserving) {
  // The GEMM permutes an operand's axes by reading it through strides; read
  // transposed against the identity, it only moves elements.
  ts::Generator gen(GetParam() + 400);
  const ts::Tensor a = gen.normal(ts::Shape{12, 5});
  ts::Tensor eye{ts::Shape{12, 12}};
  for (int64_t i = 0; i < 12; ++i) eye.at({i, i}) = 1.0f;
  EXPECT_NEAR(ts::frobenius_norm(ts::matmul2d(a, eye, /*trans_a=*/true)),
              ts::frobenius_norm(a), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TensorAlgebra,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------- compressor properties ----------

struct SparseCase {
  double fraction;
  uint64_t seed;
};

class TopKProperties
    : public ::testing::TestWithParam<std::tuple<double, uint64_t>> {};

TEST_P(TopKProperties, RoundTripIsIdempotent) {
  const auto [fraction, seed] = GetParam();
  cp::TopKCompressor c(fraction);
  ts::Generator gen(seed);
  const ts::Tensor x = gen.normal(ts::Shape{8, 33}, 0.0f, 2.0f);
  const ts::Tensor once = c.round_trip(x);
  const ts::Tensor twice = c.round_trip(once);
  EXPECT_TRUE(ts::allclose(once, twice, 0, 0));
}

TEST_P(TopKProperties, ReconstructionNeverWorseThanZero) {
  // ||topk(x) - x|| <= ||x|| always (it only removes energy).
  const auto [fraction, seed] = GetParam();
  cp::TopKCompressor c(fraction);
  ts::Generator gen(seed + 50);
  const ts::Tensor x = gen.normal(ts::Shape{6, 40}, 0.0f, 1.5f);
  EXPECT_LE(ts::rel_error(c.round_trip(x), x), 1.0f + 1e-4f);
}

TEST_P(TopKProperties, KeptEnergyIsMaximal) {
  // No other mask of the same size retains more energy than top-k.
  const auto [fraction, seed] = GetParam();
  cp::TopKCompressor c(fraction);
  ts::Generator gen(seed + 99);
  const ts::Tensor x = gen.normal(ts::Shape{128}, 0.0f, 2.0f);
  const ts::Tensor kept = c.round_trip(x);
  // Energy kept by top-k:
  double topk_energy = 0;
  for (float v : kept.data()) topk_energy += static_cast<double>(v) * v;
  // Energy kept by a random mask of the same cardinality:
  const int64_t k = c.k_for(x.numel());
  double rand_energy = 0;
  for (int64_t i : gen.sample_without_replacement(x.numel(), k)) {
    const float v = x.data()[static_cast<size_t>(i)];
    rand_energy += static_cast<double>(v) * v;
  }
  EXPECT_GE(topk_energy + 1e-6, rand_energy);
}

INSTANTIATE_TEST_SUITE_P(
    FractionsAndSeeds, TopKProperties,
    ::testing::Combine(::testing::Values(0.016276, 0.048828, 0.25, 0.9),
                       ::testing::Values(11u, 22u, 33u)));

class QuantProperties
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(QuantProperties, RoundTripIsIdempotent) {
  const auto [bits, seed] = GetParam();
  cp::QuantizeCompressor c(bits);
  ts::Generator gen(seed);
  const ts::Tensor x = gen.normal(ts::Shape{5, 17}, 0.0f, 4.0f);
  const ts::Tensor once = c.round_trip(x);
  const ts::Tensor twice = c.round_trip(once);
  EXPECT_LT(ts::max_abs_diff(once, twice), 1e-3f);
}

TEST_P(QuantProperties, PreservesRowExtremesApproximately) {
  const auto [bits, seed] = GetParam();
  cp::QuantizeCompressor c(bits);
  ts::Generator gen(seed + 7);
  const ts::Tensor x = gen.normal(ts::Shape{4, 32}, 0.0f, 3.0f);
  const ts::Tensor y = c.round_trip(x);
  for (int64_t r = 0; r < 4; ++r) {
    float xmin = 1e9f, xmax = -1e9f, ymin = 1e9f, ymax = -1e9f;
    for (int64_t col = 0; col < 32; ++col) {
      xmin = std::min(xmin, x.at({r, col}));
      xmax = std::max(xmax, x.at({r, col}));
      ymin = std::min(ymin, y.at({r, col}));
      ymax = std::max(ymax, y.at({r, col}));
    }
    // min/max are representable points of the affine grid (fp16-rounded).
    EXPECT_NEAR(xmin, ymin, std::fabs(xmin) * 0.01f + 0.05f);
    EXPECT_NEAR(xmax, ymax, std::fabs(xmax) * 0.01f + 0.05f);
  }
}

INSTANTIATE_TEST_SUITE_P(BitsAndSeeds, QuantProperties,
                         ::testing::Combine(::testing::Values(2, 4, 8),
                                            ::testing::Values(5u, 6u)));

TEST(CompressorMonotonicity, TopKErrorDecreasesWithFraction) {
  ts::Generator gen(77);
  const ts::Tensor x = gen.normal(ts::Shape{16, 64}, 0.0f, 2.0f);
  double prev = 1e9;
  for (double f : {0.01, 0.05, 0.2, 0.5, 0.95}) {
    cp::TopKCompressor c(f);
    const double err = ts::rel_error(c.round_trip(x), x);
    EXPECT_LT(err, prev) << f;
    prev = err;
  }
}

TEST(CompressorMonotonicity, WireBytesGrowWithFidelityKnob) {
  ts::Generator gen(78);
  const ts::Shape shape{8, 16, 64};
  // Top-K: bytes grow with fraction.
  int64_t prev = 0;
  for (double f : {0.01, 0.05, 0.2}) {
    cp::TopKCompressor c(f);
    const int64_t b = c.wire_size(shape).total_bytes();
    EXPECT_GT(b, prev);
    prev = b;
  }
  // Quant: bytes grow with bit width.
  prev = 0;
  for (int bits : {2, 4, 8}) {
    cp::QuantizeCompressor c(bits);
    const int64_t b = c.wire_size(shape).total_bytes();
    EXPECT_GT(b, prev);
    prev = b;
  }
}

// ---------- round-trip properties across the compressor family ----------

class RoundTripShape : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoundTripShape, DecodeOfEncodePreservesShape) {
  // decode(encode(x)) must return a dense tensor of x's shape for every
  // compressor, whatever the wire format does in between.
  const uint64_t seed = GetParam();
  ts::Generator gen(seed);
  const ts::Shape shapes[] = {ts::Shape{64}, ts::Shape{8, 33},
                              ts::Shape{3, 5, 16}};
  std::vector<cp::CompressorPtr> cs;
  cs.push_back(std::make_unique<cp::TopKCompressor>(0.1));
  cs.push_back(std::make_unique<cp::RandomKCompressor>(0.1, seed));
  cs.push_back(std::make_unique<cp::QuantizeCompressor>(4));
  cs.push_back(std::make_unique<cp::ErrorFeedbackCompressor>(
      std::make_unique<cp::TopKCompressor>(0.1)));
  for (auto& c : cs) {
    for (const auto& shape : shapes) {
      const ts::Tensor x = gen.normal(shape, 0.0f, 2.0f);
      const ts::Tensor y = c->decode(c->encode(x));
      EXPECT_EQ(y.shape(), x.shape()) << c->name();
    }
  }
}

TEST_P(RoundTripShape, TopKNeverLosesToRandomKAtEqualBudget) {
  // At the same kept fraction, choosing the largest-magnitude entries can
  // only beat a uniformly random choice (top-k keeps maximal energy).
  const uint64_t seed = GetParam();
  ts::Generator gen(seed + 1000);
  const ts::Tensor x = gen.normal(ts::Shape{16, 48}, 0.0f, 2.0f);
  for (double fraction : {0.05, 0.2, 0.5}) {
    cp::TopKCompressor topk(fraction);
    cp::RandomKCompressor randk(fraction, seed);
    const float topk_err = ts::rel_error(topk.round_trip(x), x);
    const float randk_err = ts::rel_error(randk.round_trip(x), x);
    EXPECT_LE(topk_err, randk_err + 1e-5f) << "fraction " << fraction;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripShape,
                         ::testing::Values(21u, 42u, 63u, 84u));

TEST(ErrorFeedbackProperty, ResidualStaysBoundedAndStreamErrorDecays) {
  // EF transmits C(x + e) and keeps e' = (x + e) - C(x + e). For a constant
  // input stream the residual must stay bounded (not accumulate), which
  // makes the error of the *accumulated* stream decay like O(1/T): the
  // receiver's running average converges to the true activation even though
  // each message is aggressively sparsified.
  ts::Generator gen(7);
  const ts::Tensor x = gen.normal(ts::Shape{8, 32}, 0.0f, 1.5f);
  const float xnorm = ts::frobenius_norm(x);
  cp::ErrorFeedbackCompressor ef(std::make_unique<cp::TopKCompressor>(0.1));

  ts::Tensor sum;  // accumulated reconstructed stream
  float err_at_1 = 0.0f;
  float err_at_16 = 0.0f;
  float err_at_64 = 0.0f;
  for (int t = 1; t <= 64; ++t) {
    const ts::Tensor got = ef.round_trip(x);
    sum = (t == 1) ? got : ts::add(sum, got);
    // Residual bounded: for a delta-contraction C (top-k keeps at least
    // delta = k/n of the energy), EF-SGD theory bounds the equilibrium
    // residual by (1 - delta)/delta * ||x|| = 9 ||x|| at 10% density. It
    // must never exceed that — unbounded growth would mean the feedback
    // loop is broken.
    EXPECT_LE(ts::frobenius_norm(ef.residual()), 9.0f * xnorm) << "step " << t;
    const ts::Tensor avg = ts::mul_scalar(sum, 1.0f / static_cast<float>(t));
    const float err = ts::rel_error(avg, x);
    if (t == 1) err_at_1 = err;
    if (t == 16) err_at_16 = err;
    if (t == 64) err_at_64 = err;
  }
  // The stream error is ||e_T|| / (T ||x||): once the residual equilibrates
  // the decay is O(1/T). Early on the residual is still ramping, so test the
  // asymptote with slack: strictly decreasing checkpoints and a >= 4x drop
  // over 64 steps.
  EXPECT_LT(err_at_16, err_at_1);
  EXPECT_LT(err_at_64, err_at_16);
  EXPECT_LT(err_at_64, err_at_1 / 4.0f);
  // And the plain compressor does NOT converge: its stream error is flat.
  cp::TopKCompressor plain(0.1);
  const float plain_err = ts::rel_error(plain.round_trip(x), x);
  EXPECT_GT(plain_err, err_at_64);
}

// ---------- pipeline schedule bounds ----------

class PipelineBounds
    : public ::testing::TestWithParam<std::tuple<int, int, sm::ScheduleKind>> {};

TEST_P(PipelineBounds, MakespanRespectsLowerBounds) {
  const auto [stages, micros, kind] = GetParam();
  sm::PipelineCosts c;
  ts::Generator gen(static_cast<uint64_t>(stages * 100 + micros));
  for (int s = 0; s < stages; ++s) {
    c.fwd_ms.push_back(5.0 + gen.rand_float(0, 5));
    c.bwd_ms.push_back(10.0 + gen.rand_float(0, 5));
  }
  for (int b = 0; b + 1 < stages; ++b) {
    c.p2p_fwd_ms.push_back(gen.rand_float(0, 2));
    c.p2p_bwd_ms.push_back(gen.rand_float(0, 2));
  }
  c.micro_batches = micros;
  const auto r = sm::simulate_pipeline(c, kind);

  // Bound 1: no stage can finish before doing all its own work.
  for (int s = 0; s < stages; ++s) {
    EXPECT_GE(r.makespan_ms + 1e-9, r.stage_busy_ms[static_cast<size_t>(s)]);
  }
  // Bound 2: the first micro-batch's full traversal is a critical path.
  double traversal = 0;
  for (int s = 0; s < stages; ++s) {
    traversal += c.fwd_ms[static_cast<size_t>(s)] + c.bwd_ms[static_cast<size_t>(s)];
  }
  for (int b = 0; b + 1 < stages; ++b) {
    traversal += c.p2p_fwd_ms[static_cast<size_t>(b)] + c.p2p_bwd_ms[static_cast<size_t>(b)];
  }
  EXPECT_GE(r.makespan_ms + 1e-9, traversal);
  // Bound 3: idle = makespan - busy, non-negative.
  for (int s = 0; s < stages; ++s) {
    EXPECT_GE(r.stage_idle_ms[static_cast<size_t>(s)], -1e-9);
  }
}

TEST_P(PipelineBounds, MakespanMonotoneInMicroBatches) {
  const auto [stages, micros, kind] = GetParam();
  sm::PipelineCosts c;
  for (int s = 0; s < stages; ++s) {
    c.fwd_ms.push_back(7.0);
    c.bwd_ms.push_back(13.0);
  }
  c.p2p_fwd_ms.assign(static_cast<size_t>(stages - 1), 1.0);
  c.p2p_bwd_ms.assign(static_cast<size_t>(stages - 1), 1.0);
  c.micro_batches = micros;
  const double t1 = sm::simulate_pipeline(c, kind).makespan_ms;
  c.micro_batches = micros + 1;
  const double t2 = sm::simulate_pipeline(c, kind).makespan_ms;
  EXPECT_GT(t2, t1);
  // Adding one micro-batch costs at most one full traversal.
  EXPECT_LE(t2 - t1, 20.0 + 2.0 * stages + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PipelineBounds,
    ::testing::Combine(::testing::Values(2, 3, 4, 8), ::testing::Values(1, 4, 9),
                       ::testing::Values(sm::ScheduleKind::kGpipe,
                                         sm::ScheduleKind::k1F1B)));

// ---------- lossless wire codecs (WIRE_FORMATS.md §4-§5) ----------

namespace {

/// Payload families the codec must round-trip exactly: arbitrary bytes,
/// fp16/fp32 streams (incl. NaN/Inf/±0 payloads), runs, and degenerate
/// sizes. Indexed by the test parameter so failures name the family.
std::vector<std::byte> lossless_payload(int family, uint64_t seed) {
  ts::Generator gen(seed);
  std::vector<std::byte> out;
  auto push_fp16 = [&](const ts::Tensor& t) { cp::wire::append_fp16(out, t); };
  switch (family) {
    case 0:  // empty
      return out;
    case 1:  // single byte
      out.push_back(std::byte{0xA7});
      return out;
    case 2: {  // uniform random bytes, odd (prime) length
      const ts::Tensor u = gen.uniform(ts::Shape{997}, 0.0f, 256.0f);
      for (int64_t i = 0; i < u.numel(); ++i) {
        out.push_back(static_cast<std::byte>(
            static_cast<int>(u.data()[static_cast<size_t>(i)]) & 0xFF));
      }
      return out;
    }
    case 3:  // fp16 stream of unit-normal activations
      push_fp16(gen.normal(ts::Shape{37, 129}));
      return out;
    case 4: {  // fp16 stream with NaN / Inf / ±0 payloads mixed in
      ts::Tensor t = gen.normal(ts::Shape{512});
      t.data()[0] = std::numeric_limits<float>::quiet_NaN();
      t.data()[1] = std::numeric_limits<float>::infinity();
      t.data()[2] = -std::numeric_limits<float>::infinity();
      t.data()[3] = 0.0f;
      t.data()[4] = -0.0f;
      t.data()[5] = std::numeric_limits<float>::denorm_min();
      push_fp16(t);
      return out;
    }
    case 5: {  // fp32 bytes (stride-4 planes), raw bit pattern
      const ts::Tensor t = gen.normal(ts::Shape{333}, 0.0f, 100.0f);
      out.resize(static_cast<size_t>(t.numel()) * 4);
      std::memcpy(out.data(), t.data().data(), out.size());
      return out;
    }
    case 6:  // all-zero run (RLE-degenerate)
      out.assign(4096, std::byte{0});
      return out;
    case 7: {  // long runs with rare breaks (PackBits control-byte edges)
      out.assign(1000, std::byte{0x42});
      for (size_t i = 0; i < out.size(); i += 129) out[i] = std::byte{0x99};
      return out;
    }
    case 8: {  // Fibonacci-weighted: symbol s occurs F(s + 1) times, in
               // shuffled order, each occurrence as 4 equal bytes so every
               // byte plane keeps the weights. Huffman codes then run to 21
               // bits, far past the decoder's 11-bit lookup table.
      std::vector<std::byte> symbols;
      int64_t f0 = 1, f1 = 1;
      for (int sym = 0; sym < 22; ++sym) {
        symbols.insert(symbols.end(), static_cast<size_t>(f0),
                       static_cast<std::byte>(sym));
        f0 = std::exchange(f1, f0 + f1);
      }
      std::shuffle(symbols.begin(), symbols.end(), gen.engine());
      for (const std::byte b : symbols) out.insert(out.end(), 4, b);
      return out;
    }
    default:
      ADD_FAILURE() << "unknown payload family " << family;
      return out;
  }
}

}  // namespace

class LosslessRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int, int64_t>> {};

TEST_P(LosslessRoundTrip, DecodeInvertsEncodeWithinTheSizeBound) {
  const auto [codec_idx, family, chunk_bytes] = GetParam();
  cp::LosslessCodec codec = cp::standard_lossless_codecs()
      [static_cast<size_t>(codec_idx)];
  codec.chunk_bytes = chunk_bytes;
  const std::vector<std::byte> data =
      lossless_payload(family, 1000 + static_cast<uint64_t>(family));
  const std::vector<std::byte> enc = codec.encode(data);
  // encode() never exceeds the closed-form upper bound wire_size() quotes.
  EXPECT_LE(static_cast<int64_t>(enc.size()),
            codec.max_encoded_bytes(static_cast<int64_t>(data.size())));
  EXPECT_EQ(codec.decode(enc), data) << codec.name();
}

TEST_P(LosslessRoundTrip, TruncatedOrPaddedContainerThrows) {
  const auto [codec_idx, family, chunk_bytes] = GetParam();
  cp::LosslessCodec codec = cp::standard_lossless_codecs()
      [static_cast<size_t>(codec_idx)];
  codec.chunk_bytes = chunk_bytes;
  const std::vector<std::byte> data =
      lossless_payload(family, 2000 + static_cast<uint64_t>(family));
  const std::vector<std::byte> enc = codec.encode(data);
  // Every proper prefix is rejected (spot-check a spread of cut points, and
  // every cut in the header region), as is trailing garbage.
  std::vector<size_t> cuts{0, 1, 7, 12, 23};
  for (size_t c = 0; c < enc.size(); c += enc.size() / 7 + 1) cuts.push_back(c);
  cuts.push_back(enc.size() - 1);
  for (size_t cut : cuts) {
    if (cut >= enc.size()) continue;
    const std::vector<std::byte> prefix(enc.begin(),
                                        enc.begin() + static_cast<int64_t>(cut));
    EXPECT_THROW(codec.decode(prefix), std::invalid_argument)
        << codec.name() << " cut=" << cut;
  }
  std::vector<std::byte> padded = enc;
  padded.push_back(std::byte{0x5A});
  EXPECT_THROW(codec.decode(padded), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    CodecsXPayloads, LosslessRoundTrip,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values(int64_t{0}, int64_t{1000})));

TEST(LosslessCodecProps, ChunkTableMatchesNumChunks) {
  cp::LosslessCodec codec;
  codec.chunk_bytes = 256;
  EXPECT_EQ(codec.num_chunks(0), 1);
  EXPECT_EQ(codec.num_chunks(1), 1);
  EXPECT_EQ(codec.num_chunks(256), 1);
  EXPECT_EQ(codec.num_chunks(257), 2);
  EXPECT_EQ(codec.num_chunks(1024), 4);
  // Chunked and unchunked containers decode to the same payload.
  const std::vector<std::byte> data = lossless_payload(3, 77);
  cp::LosslessCodec whole = codec;
  whole.chunk_bytes = 0;
  EXPECT_EQ(codec.decode(codec.encode(data)), whole.decode(whole.encode(data)));
}

TEST(LosslessCodecProps, EncodeIsDeterministic) {
  const std::vector<std::byte> data = lossless_payload(3, 5);
  for (const cp::LosslessCodec& codec : cp::standard_lossless_codecs()) {
    EXPECT_EQ(codec.encode(data), codec.encode(data)) << codec.name();
  }
}

namespace {

/// A one-chunk, unsplit container (WIRE_FORMATS.md §4.1, §4.3) whose one
/// plane is the Huffman stream (§4.5) `lens ++ bits` for `raw` symbols.
std::vector<std::byte> huffman_container(const std::vector<uint8_t>& lens,
                                         const std::vector<uint8_t>& bits,
                                         uint64_t raw) {
  std::vector<std::byte> plane(256, std::byte{0});
  for (size_t s = 0; s < lens.size(); ++s) plane[s] = static_cast<std::byte>(lens[s]);
  for (const uint8_t b : bits) plane.push_back(static_cast<std::byte>(b));
  std::vector<std::byte> out;
  cp::wire::append_pod<uint8_t>(out, 0xAC);  // magic
  cp::wire::append_pod<uint8_t>(out, 1);     // version
  cp::wire::append_pod<uint8_t>(out, static_cast<uint8_t>(cp::LosslessAlgo::kHuffman));
  cp::wire::append_pod<uint8_t>(out, static_cast<uint8_t>(cp::PlaneSplit::kNone));
  cp::wire::append_pod<uint64_t>(out, raw);
  cp::wire::append_pod<uint32_t>(out, 1);
  cp::wire::append_pod<uint64_t>(out, raw);
  cp::wire::append_pod<uint64_t>(out, 9 + plane.size());
  cp::wire::append_pod<uint8_t>(out, static_cast<uint8_t>(cp::LosslessAlgo::kHuffman));
  cp::wire::append_pod<uint64_t>(out, plane.size());
  out.insert(out.end(), plane.begin(), plane.end());
  return out;
}

}  // namespace

TEST(LosslessCodecProps, HostileHuffmanPlanesThrow) {
  const cp::LosslessCodec codec;
  // Symbols 0 and 1 with 1-bit codes 0 and 1: 16 symbols in 2 bytes.
  const std::vector<uint8_t> two{1, 1};
  ASSERT_EQ(codec.decode(huffman_container(two, {0x5A, 0xC3}, 16)).size(), 16u);
  EXPECT_THROW(codec.decode(huffman_container(two, {0x5A}, 16)), std::invalid_argument)
      << "one byte short";
  EXPECT_THROW(codec.decode(huffman_container(two, {0x5A, 0xC3, 0x00}, 16)),
               std::invalid_argument)
      << "one trailing byte";
  EXPECT_THROW(codec.decode(huffman_container({33}, {0x00}, 1)), std::invalid_argument)
      << "code length 33";
  EXPECT_THROW(codec.decode(huffman_container({1, 1, 1}, {0x00}, 8)),
               std::invalid_argument)
      << "over-full length table";
  // Incomplete table: symbol 0 = "0", symbol 1 = "10"; "11..." is unassigned.
  // Zero bytes decode as symbol 0, one per bit; the 0xFF bytes then start the
  // unassigned pattern, either with >= 8 bytes left (the table's region) or
  // within the last 8.
  for (const size_t zeros : {4u, 36u}) {
    std::vector<uint8_t> bits(zeros, 0x00);
    bits.resize(40, 0xFF);
    EXPECT_THROW(codec.decode(huffman_container({1, 2}, bits, 400)),
                 std::invalid_argument)
        << "unassigned pattern after " << zeros << " bytes";
  }
}

TEST(LosslessCompressorProps, DecodeMatchesFp16RoundTripBitForBit) {
  ts::Generator gen(31);
  ts::Tensor x = gen.normal(ts::Shape{19, 64});
  x.data()[0] = std::numeric_limits<float>::quiet_NaN();
  x.data()[1] = -0.0f;
  x.data()[2] = std::numeric_limits<float>::infinity();
  cp::LosslessCompressor c;
  const auto msg = c.encode(x);
  // wire_size() is a documented UPPER BOUND for the lossless formats (the
  // true size is data-dependent); encode must stay within it.
  EXPECT_LE(msg.body_bytes(), c.wire_size(x.shape()).total_bytes());
  const ts::Tensor via_wire = c.decode(msg);
  const ts::Tensor via_round_trip = c.round_trip(x);
  ASSERT_EQ(via_wire.numel(), via_round_trip.numel());
  for (int64_t i = 0; i < via_wire.numel(); ++i) {
    uint32_t a = 0, bbits = 0;
    std::memcpy(&a, &via_wire.data()[static_cast<size_t>(i)], 4);
    std::memcpy(&bbits, &via_round_trip.data()[static_cast<size_t>(i)], 4);
    EXPECT_EQ(a, bbits) << "element " << i;
  }
}

class StackedLossless : public ::testing::TestWithParam<cp::Setting> {};

TEST_P(StackedLossless, StackingIsInvisibleToTheReceiver) {
  const cp::Setting setting = GetParam();
  const int64_t hidden = 64;
  ts::Generator gen_a(9), gen_b(9), gx(123);
  const ts::Tensor x = gx.normal(ts::Shape{32, hidden});
  // Two identically-seeded inner compressors: one unstacked reference, one
  // wrapped. The stacked path must reproduce the unstacked lossy result bit
  // for bit — the lossless layer recovers the inner wire bytes exactly.
  auto reference = cp::make_compressor(setting, hidden, gen_a);
  auto inner = cp::make_compressor(setting, hidden, gen_b);
  cp::SegmentLayoutFn layout;
  if (setting == cp::Setting::kT3 || setting == cp::Setting::kR2) {
    layout = cp::segments_topk();
  } else if (setting == cp::Setting::kQ2) {
    layout = cp::segments_quantize();
  }  // default: whole-body segment
  const auto ref_msg = reference->encode(x);
  cp::StackedCompressor stacked(std::move(inner), cp::LosslessCodec{},
                                std::move(layout));
  const auto stacked_msg = stacked.encode(x);
  EXPECT_LE(stacked_msg.body_bytes(),
            stacked.wire_size(x.shape()).total_bytes());
  const ts::Tensor want = reference->decode(ref_msg);
  const ts::Tensor got = stacked.decode(stacked_msg);
  ASSERT_EQ(got.numel(), want.numel());
  for (int64_t i = 0; i < got.numel(); ++i) {
    EXPECT_EQ(got.data()[static_cast<size_t>(i)],
              want.data()[static_cast<size_t>(i)])
        << "element " << i;
  }
  // Truncating the stacked body must throw, not mis-decode.
  cp::CompressedMessage cut = stacked_msg;
  cut.body.resize(cut.body.size() / 2);
  EXPECT_THROW(stacked.decode(cut), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Settings, StackedLossless,
                         ::testing::Values(cp::Setting::kT3, cp::Setting::kR2,
                                           cp::Setting::kQ2));
