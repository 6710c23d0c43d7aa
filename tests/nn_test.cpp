// Neural-network module tests: shapes, gradients, masking, checkpointing,
// and the compression hook points.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "autograd/functions.h"
#include "compress/autoencoder.h"
#include "compress/topk.h"
#include "nn/attention.h"
#include "nn/bert.h"
#include "nn/layernorm.h"
#include "nn/linear.h"
#include "tensor/ops.h"

namespace ag = actcomp::autograd;
namespace ts = actcomp::tensor;
namespace nn = actcomp::nn;
namespace cp = actcomp::compress;

namespace {

nn::BertConfig tiny_config() {
  nn::BertConfig cfg;
  cfg.vocab_size = 64;
  cfg.hidden = 16;
  cfg.num_layers = 3;
  cfg.num_heads = 2;
  cfg.intermediate = 32;
  cfg.max_seq = 12;
  cfg.dropout = 0.0f;
  return cfg;
}

nn::EncoderInput tiny_input(int64_t b = 2, int64_t s = 8) {
  nn::EncoderInput in;
  in.batch = b;
  in.seq = s;
  for (int64_t i = 0; i < b * s; ++i) in.token_ids.push_back(i % 60);
  in.segment_ids.assign(static_cast<size_t>(b * s), 0);
  in.lengths.assign(static_cast<size_t>(b), s);
  return in;
}

}  // namespace

// ---------- Linear ----------

TEST(Linear, ForwardShapeAndBias) {
  ts::Generator gen(1);
  nn::Linear lin(8, 4, gen);
  ag::Variable x = ag::Variable::leaf(gen.normal(ts::Shape{3, 8}));
  EXPECT_EQ(lin.forward(x).value().shape(), (ts::Shape{3, 4}));
  EXPECT_EQ(lin.named_parameters().size(), 2u);
}

TEST(Linear, WrongInputDimThrows) {
  ts::Generator gen(2);
  nn::Linear lin(8, 4, gen);
  ag::Variable x = ag::Variable::leaf(gen.normal(ts::Shape{3, 7}));
  EXPECT_THROW(lin.forward(x), std::invalid_argument);
}

TEST(Linear, BatchedThreeDInput) {
  ts::Generator gen(3);
  nn::Linear lin(8, 4, gen);
  ag::Variable x = ag::Variable::leaf(gen.normal(ts::Shape{2, 3, 8}));
  EXPECT_EQ(lin.forward(x).value().shape(), (ts::Shape{2, 3, 4}));
}

// ---------- LayerNorm ----------

TEST(LayerNorm, NormalizesRows) {
  ts::Generator gen(4);
  nn::LayerNorm ln(8);
  ag::Variable x = ag::Variable::leaf(gen.normal(ts::Shape{5, 8}, 3.0f, 2.0f));
  const ts::Tensor y = ln.forward(x).value();
  for (int64_t r = 0; r < 5; ++r) {
    double mean = 0, var = 0;
    for (int64_t c = 0; c < 8; ++c) mean += y.at({r, c});
    mean /= 8;
    for (int64_t c = 0; c < 8; ++c) var += std::pow(y.at({r, c}) - mean, 2);
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

// ---------- Attention ----------

TEST(Attention, OutputShape) {
  ts::Generator gen(5);
  nn::MultiHeadAttention attn(16, 4, gen);
  ag::Variable x = ag::Variable::leaf(gen.normal(ts::Shape{2, 6, 16}));
  EXPECT_EQ(attn.forward(x, ts::Tensor()).value().shape(), (ts::Shape{2, 6, 16}));
  EXPECT_EQ(attn.named_parameters().size(), 8u);
}

TEST(Attention, HiddenNotDivisibleThrows) {
  ts::Generator gen(6);
  EXPECT_THROW(nn::MultiHeadAttention(16, 3, gen), std::invalid_argument);
}

TEST(Attention, PaddingMaskBlocksInformation) {
  // Changing a masked (padded) position must not change the outputs at
  // valid positions.
  ts::Generator gen(7);
  nn::MultiHeadAttention attn(16, 2, gen);
  ts::Tensor xv = gen.normal(ts::Shape{1, 6, 16});
  ts::Tensor mask{ts::Shape{1, 6}};
  mask.at({0, 4}) = -1e4f;
  mask.at({0, 5}) = -1e4f;

  const ts::Tensor y1 =
      attn.forward(ag::Variable::leaf(xv), mask).value();
  ts::Tensor xv2 = xv.clone();
  for (int64_t c = 0; c < 16; ++c) xv2.at({0, 5, c}) += 10.0f;
  const ts::Tensor y2 =
      attn.forward(ag::Variable::leaf(xv2), mask).value();
  for (int64_t pos = 0; pos < 4; ++pos) {
    for (int64_t c = 0; c < 16; ++c) {
      EXPECT_NEAR(y1.at({0, pos, c}), y2.at({0, pos, c}), 1e-4f) << pos << "," << c;
    }
  }
}

TEST(Attention, GradFlowsToAllProjections) {
  ts::Generator gen(8);
  nn::MultiHeadAttention attn(8, 2, gen);
  ag::Variable x = ag::Variable::leaf(gen.normal(ts::Shape{1, 4, 8}), true);
  ag::Variable y = attn.forward(x, ts::Tensor());
  ag::Variable loss = ag::mse_loss(y, ts::Tensor::zeros(ts::Shape{1, 4, 8}));
  loss.backward();
  EXPECT_TRUE(x.has_grad());
  for (auto& [name, p] : attn.named_parameters()) {
    EXPECT_TRUE(p.has_grad()) << name;
  }
}

namespace {

/// Central finite differences of the scalar loss sum(y * w), for a fixed
/// random w, against the attention core's hand-written backward: every
/// element of x and of every projection's weight and bias.
void check_attention_gradients(
    const nn::MultiHeadAttention& attn, ag::Variable x,
    const std::function<ag::Variable(const ag::Variable&)>& forward) {
  ts::Generator gw(17);
  const int64_t n = x.value().numel();
  const ag::Variable w = ag::Variable::leaf(gw.normal(ts::Shape{n, 1}));
  const auto loss = [&] {
    return ag::matmul(ag::reshape(forward(x), ts::Shape{1, n}), w);
  };
  loss().backward();
  std::vector<std::pair<std::string, ag::Variable>> leaves = {{"x", x}};
  for (const auto& np : attn.named_parameters()) leaves.push_back(np);
  const float eps = 1e-3f, tol = 2e-2f;
  for (auto& [name, leaf] : leaves) {
    ASSERT_TRUE(leaf.has_grad()) << name;
    const ts::Tensor analytic = leaf.grad().clone();
    auto vals = leaf.mutable_value().data();
    for (size_t i = 0; i < vals.size(); ++i) {
      const float orig = vals[i];
      vals[i] = orig + eps;
      const float hi = loss().value().item();
      vals[i] = orig - eps;
      const float lo = loss().value().item();
      vals[i] = orig;
      const float fd = (hi - lo) / (2 * eps);
      EXPECT_NEAR(analytic.data()[i], fd, tol * std::max(1.0f, std::fabs(fd)))
          << name << " elem " << i;
    }
  }
}

}  // namespace

TEST(Attention, GradMatchesFiniteDifferencesWithPaddingMask) {
  ts::Generator gen(31);
  nn::MultiHeadAttention attn(8, 2, gen);
  ag::Variable x = ag::Variable::leaf(gen.normal(ts::Shape{2, 4, 8}), true);
  ts::Tensor mask{ts::Shape{2, 4}};
  mask.at({1, 3}) = -1e4f;  // the second sequence is padded
  check_attention_gradients(attn, x, [&](const ag::Variable& in) {
    return attn.forward(in, mask);
  });
}

TEST(Attention, CausalGradMatchesFiniteDifferences) {
  ts::Generator gen(37);
  nn::MultiHeadAttention attn(8, 2, gen);
  ag::Variable x = ag::Variable::leaf(gen.normal(ts::Shape{2, 5, 8}), true);
  check_attention_gradients(attn, x, [&](const ag::Variable& in) {
    return attn.forward_causal(in);
  });
}

// ---------- TransformerEncoderLayer / compression hooks ----------

TEST(TransformerLayer, ForwardShapeAndParamNames) {
  ts::Generator gen(9);
  nn::TransformerEncoderLayer layer({16, 2, 32, 0.0f}, gen);
  ag::Variable x = ag::Variable::leaf(gen.normal(ts::Shape{2, 5, 16}));
  EXPECT_EQ(layer.forward(x, ts::Tensor(), gen, false).value().shape(),
            (ts::Shape{2, 5, 16}));
  std::set<std::string> names;
  for (auto& [n, p] : layer.named_parameters()) names.insert(n);
  EXPECT_TRUE(names.count("attn.wq.weight"));
  EXPECT_TRUE(names.count("mlp_in.bias"));
  EXPECT_TRUE(names.count("ln2.gamma"));
}

TEST(TransformerLayer, CompressionHookChangesOutput) {
  ts::Generator gen(10);
  nn::TransformerEncoderLayer layer({16, 2, 32, 0.0f}, gen);
  ag::Variable x = ag::Variable::leaf(gen.normal(ts::Shape{1, 4, 16}));
  const ts::Tensor base = layer.forward(x, ts::Tensor(), gen, false).value();

  cp::TopKCompressor topk(0.1);
  layer.set_compression(&topk, &topk);
  EXPECT_TRUE(layer.is_compressed());
  const ts::Tensor compressed = layer.forward(x, ts::Tensor(), gen, false).value();
  EXPECT_GT(ts::max_abs_diff(base, compressed), 1e-4f);

  layer.set_compression(nullptr, nullptr);
  EXPECT_FALSE(layer.is_compressed());
  const ts::Tensor restored = layer.forward(x, ts::Tensor(), gen, false).value();
  EXPECT_TRUE(ts::allclose(base, restored, 0, 0));
}

TEST(TransformerLayer, AeHookIsNearlyLosslessWhenWide) {
  // A codec with nearly full rank should barely perturb the layer.
  ts::Generator gen(11);
  nn::TransformerEncoderLayer layer({16, 2, 32, 0.0f}, gen);
  cp::AutoencoderCompressor narrow(16, 2, gen);
  ag::Variable x = ag::Variable::leaf(gen.normal(ts::Shape{1, 4, 16}));
  const ts::Tensor base = layer.forward(x, ts::Tensor(), gen, false).value();
  layer.set_compression(&narrow, &narrow);
  const ts::Tensor out = layer.forward(x, ts::Tensor(), gen, false).value();
  // Untrained narrow codec: output differs but stays finite.
  EXPECT_GT(ts::max_abs_diff(base, out), 1e-4f);
  for (float v : out.data()) EXPECT_TRUE(std::isfinite(v));
}

// ---------- BertModel ----------

TEST(Bert, ForwardShape) {
  ts::Generator gen(12);
  nn::BertModel model(tiny_config(), gen);
  const ts::Tensor y = model.forward(tiny_input(), gen, false).value();
  EXPECT_EQ(y.shape(), (ts::Shape{2, 8, 16}));
}

TEST(Bert, DeterministicInEval) {
  ts::Generator gen(13);
  nn::BertModel model(tiny_config(), gen);
  ts::Generator g1(5), g2(5);
  const ts::Tensor y1 = model.forward(tiny_input(), g1, false).value();
  const ts::Tensor y2 = model.forward(tiny_input(), g2, false).value();
  EXPECT_TRUE(ts::allclose(y1, y2, 0, 0));
}

TEST(Bert, SequenceTooLongThrows) {
  ts::Generator gen(14);
  nn::BertModel model(tiny_config(), gen);
  EXPECT_THROW(model.forward(tiny_input(2, 13), gen, false), std::invalid_argument);
}

TEST(Bert, ParameterCountMatchesArchitecture) {
  ts::Generator gen(15);
  const nn::BertConfig cfg = tiny_config();
  nn::BertModel model(cfg, gen);
  // Embeddings: (64 + 12 + 2) * 16 + LN 2*16.
  const int64_t emb = (64 + 12 + 2) * 16 + 32;
  // Per layer: 4 * (16*16 + 16) attention + 2 LN (2*16 each) +
  // 16*32+32 + 32*16+16 MLP.
  const int64_t per_layer = 4 * (256 + 16) + 2 * 32 + (16 * 32 + 32) + (32 * 16 + 16);
  EXPECT_EQ(model.parameter_count(), emb + 3 * per_layer);
}

TEST(Bert, StateDictRoundTripThroughStream) {
  ts::Generator gen(16);
  nn::BertModel a(tiny_config(), gen);
  nn::BertModel b(tiny_config(), gen);
  ts::Generator g(1);
  const ts::Tensor before = b.forward(tiny_input(), g, false).value();

  std::stringstream ss;
  ts::write_tensor_map(ss, a.state_dict());
  const int loaded = b.load_state_dict(ts::read_tensor_map(ss));
  EXPECT_EQ(loaded, static_cast<int>(a.named_parameters().size()));

  const ts::Tensor ya = a.forward(tiny_input(), g, false).value();
  const ts::Tensor yb = b.forward(tiny_input(), g, false).value();
  EXPECT_TRUE(ts::allclose(ya, yb, 0, 0));
  EXPECT_GT(ts::max_abs_diff(before, yb), 1e-4f);
}

TEST(Bert, PartialLoadSkipsMissingNames) {
  // Takeaway 5's mechanism: loading a checkpoint that lacks codec params
  // must load everything else and report the count.
  ts::Generator gen(17);
  nn::BertModel a(tiny_config(), gen);
  ts::TensorMap partial = a.state_dict();
  partial.erase("embeddings.token");
  nn::BertModel b(tiny_config(), gen);
  const int loaded = b.load_state_dict(partial);
  EXPECT_EQ(loaded, static_cast<int>(a.named_parameters().size()) - 1);
}

TEST(Bert, LoadShapeMismatchThrows) {
  ts::Generator gen(18);
  nn::BertModel model(tiny_config(), gen);
  ts::TensorMap bad;
  bad.emplace("embeddings.token", ts::Tensor::zeros(ts::Shape{2, 2}));
  EXPECT_THROW(model.load_state_dict(bad), std::invalid_argument);
}

TEST(Bert, BoundaryCompressionApplied) {
  ts::Generator gen(19);
  nn::BertModel model(tiny_config(), gen);
  ts::Generator g(1);
  const ts::Tensor base = model.forward(tiny_input(), g, false).value();
  cp::TopKCompressor topk(0.05);
  model.set_boundary_compression(1, &topk);
  const ts::Tensor comp = model.forward(tiny_input(), g, false).value();
  EXPECT_GT(ts::max_abs_diff(base, comp), 1e-4f);
  model.set_boundary_compression(1, nullptr);
  EXPECT_TRUE(ts::allclose(model.forward(tiny_input(), g, false).value(), base, 0, 0));
}

TEST(Bert, MaskedPaddingDoesNotAffectCls) {
  ts::Generator gen(20);
  nn::BertModel model(tiny_config(), gen);
  nn::EncoderInput in = tiny_input(1, 8);
  in.lengths = {5};
  ts::Generator g(1);
  const ts::Tensor y1 = model.forward(in, g, false).value();
  // Perturb a padded token id.
  in.token_ids[7] = 31;
  const ts::Tensor y2 = model.forward(in, g, false).value();
  for (int64_t c = 0; c < 16; ++c) {
    EXPECT_NEAR(y1.at({0, 0, c}), y2.at({0, 0, c}), 2e-3f) << c;
  }
}

// ---------- heads ----------

TEST(Heads, ClassificationShapeAndGrad) {
  ts::Generator gen(21);
  nn::BertModel model(tiny_config(), gen);
  nn::ClassificationHead head(16, 3, gen);
  ag::Variable seq = model.forward(tiny_input(), gen, false);
  ag::Variable logits = head.forward(seq);
  EXPECT_EQ(logits.value().shape(), (ts::Shape{2, 3}));
  ag::Variable loss = ag::softmax_cross_entropy(logits, {0, 2});
  loss.backward();
  for (auto& [name, p] : head.named_parameters()) EXPECT_TRUE(p.has_grad()) << name;
}

TEST(Heads, RegressionShape) {
  ts::Generator gen(22);
  nn::BertModel model(tiny_config(), gen);
  nn::RegressionHead head(16, gen);
  ag::Variable y = head.forward(model.forward(tiny_input(), gen, false));
  EXPECT_EQ(y.value().shape(), (ts::Shape{2}));
}

TEST(Heads, MlmShape) {
  ts::Generator gen(23);
  nn::BertModel model(tiny_config(), gen);
  nn::MlmHead head(16, 64, gen);
  ag::Variable logits = head.forward(model.forward(tiny_input(), gen, false));
  EXPECT_EQ(logits.value().shape(), (ts::Shape{16, 64}));
}

TEST(Heads, KeyMaskConstruction) {
  nn::EncoderInput in = tiny_input(2, 8);
  in.lengths = {3, 8};
  const ts::Tensor m = nn::make_key_mask(in);
  EXPECT_EQ(m.at({0, 2}), 0.0f);
  EXPECT_EQ(m.at({0, 3}), -1e4f);
  EXPECT_EQ(m.at({1, 7}), 0.0f);
}
