// Autograd tests: every differentiable op is verified against central finite
// differences, plus graph-mechanics tests (accumulation, diamond graphs,
// no-grad scopes, custom ops).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "autograd/functions.h"
#include "autograd/variable.h"
#include "tensor/ops.h"
#include "tensor/random.h"

namespace ag = actcomp::autograd;
namespace ts = actcomp::tensor;

namespace {

/// Central finite-difference check: `forward` maps leaf values to a scalar
/// Variable; the analytic gradient of every leaf is compared elementwise.
void check_gradients(
    std::vector<ag::Variable> leaves,
    const std::function<ag::Variable(const std::vector<ag::Variable>&)>& forward,
    float eps = 1e-3f, float tol = 2e-2f) {
  ag::Variable loss = forward(leaves);
  ASSERT_EQ(loss.value().numel(), 1);
  loss.backward();
  for (size_t li = 0; li < leaves.size(); ++li) {
    ag::Variable& leaf = leaves[li];
    ASSERT_TRUE(leaf.has_grad()) << "leaf " << li << " got no gradient";
    const ts::Tensor analytic = leaf.grad().clone();
    auto vals = leaf.mutable_value().data();
    for (size_t i = 0; i < vals.size(); ++i) {
      const float orig = vals[i];
      vals[i] = orig + eps;
      const float hi = forward(leaves).value().item();
      vals[i] = orig - eps;
      const float lo = forward(leaves).value().item();
      vals[i] = orig;
      const float fd = (hi - lo) / (2 * eps);
      const float an = analytic.data()[i];
      EXPECT_NEAR(an, fd, tol * std::max(1.0f, std::fabs(fd)))
          << "leaf " << li << " elem " << i;
    }
  }
}

ag::Variable param(ts::Generator& gen, ts::Shape shape) {
  return ag::Variable::leaf(gen.normal(std::move(shape), 0.0f, 0.5f), true);
}

/// Reduce any variable to a scalar via a fixed random projection (so the
/// gradient exercises all elements with distinct weights): the flattened
/// values times a random [n, 1] column.
ag::Variable to_scalar(const ag::Variable& v, uint64_t seed = 7) {
  ts::Generator g(seed);
  const int64_t n = v.value().numel();
  const ag::Variable w = ag::Variable::leaf(g.normal(ts::Shape{n, 1}));
  return ag::reshape(ag::matmul(ag::reshape(v, ts::Shape{1, n}), w), ts::Shape{});
}

/// A trainable (or constant) [1, 1] matrix: matmul of two is their product.
ag::Variable cell(float value, bool requires_grad) {
  return ag::Variable::leaf(ts::Tensor(ts::Shape{1, 1}, {value}), requires_grad);
}

}  // namespace

// ---------- graph mechanics ----------

TEST(Variable, LeafProperties) {
  ag::Variable v = ag::Variable::leaf(ts::Tensor::scalar(2.0f), true);
  EXPECT_TRUE(v.requires_grad());
  EXPECT_FALSE(v.has_grad());
  EXPECT_EQ(v.op_name(), "leaf");
}

TEST(Variable, BackwardOnNonScalarThrows) {
  ag::Variable v = ag::Variable::leaf(ts::Tensor::arange(3), true);
  EXPECT_THROW(v.backward(), std::invalid_argument);
}

TEST(Variable, BackwardAccumulatesAcrossCalls) {
  ag::Variable x = cell(3.0f, true);
  ag::Variable y = ag::matmul(x, cell(2.0f, false));
  y.backward();
  EXPECT_FLOAT_EQ(x.grad().item(), 2.0f);
  ag::Variable y2 = ag::matmul(x, cell(2.0f, false));
  y2.backward();
  EXPECT_FLOAT_EQ(x.grad().item(), 4.0f);  // accumulated
  x.zero_grad();
  EXPECT_FALSE(x.has_grad());
}

TEST(Variable, DiamondGraphGradient) {
  // y = x*x + x*x -> dy/dx = 4x; each product node has x as both parents.
  ag::Variable x = cell(3.0f, true);
  ag::Variable a = ag::matmul(x, x);
  ag::Variable b = ag::matmul(x, x);
  ag::Variable y = ag::reshape(ag::add(a, b), ts::Shape{});
  y.backward();
  EXPECT_FLOAT_EQ(x.grad().item(), 12.0f);
}

TEST(Variable, DeepChainGradient) {
  // y = 2^20 * x through 20 doublings.
  ag::Variable x = cell(1.0f, true);
  ag::Variable y = x;
  for (int i = 0; i < 20; ++i) y = ag::matmul(y, cell(2.0f, false));
  y.backward();
  EXPECT_FLOAT_EQ(x.grad().item(), 1048576.0f);
}

TEST(Variable, NoGradGuardCutsTape) {
  ag::Variable x = cell(1.0f, true);
  ag::Variable y;
  {
    ag::NoGradGuard ng;
    EXPECT_FALSE(ag::NoGradGuard::grad_enabled());
    y = ag::matmul(x, cell(3.0f, false));
  }
  EXPECT_TRUE(ag::NoGradGuard::grad_enabled());
  EXPECT_FALSE(y.requires_grad());
}

TEST(Variable, DetachStopsGradient) {
  ag::Variable x = cell(2.0f, true);
  ag::Variable d = ag::matmul(x, cell(5.0f, false)).detach();
  ag::Variable y = ag::add(d, d);
  EXPECT_FALSE(y.requires_grad());
}

TEST(Variable, ConstantParentsGetNoGradient) {
  ag::Variable x = cell(2.0f, true);
  ag::Variable c = cell(10.0f, false);
  ag::Variable y = ag::reshape(ag::matmul(x, c), ts::Shape{});
  y.backward();
  EXPECT_FLOAT_EQ(x.grad().item(), 10.0f);
  EXPECT_FALSE(c.has_grad());
}

TEST(Variable, GradShapeMismatchIsInternalError) {
  ag::Variable x = ag::Variable::leaf(ts::Tensor::arange(3), true);
  EXPECT_THROW(x.node()->accumulate(ts::Tensor::arange(4)), std::invalid_argument);
}

// ---------- op gradients (finite differences) ----------

TEST(Grad, AddSub) {
  ts::Generator gen(1);
  // -I: b times it is b's negated copy.
  ts::Tensor neg_eye{ts::Shape{3, 3}};
  for (int64_t i = 0; i < 3; ++i) neg_eye.at({i, i}) = -1.0f;
  const ag::Variable neg = ag::Variable::leaf(neg_eye);
  check_gradients({param(gen, ts::Shape{2, 3}), param(gen, ts::Shape{2, 3})},
                  [&](const std::vector<ag::Variable>& v) {
                    // (a + b) - b, subtracting as the add of a negated copy.
                    return to_scalar(
                        ag::add(ag::add(v[0], v[1]), ag::matmul(v[1], neg)));
                  });
}

TEST(Grad, AddBroadcastBias) {
  ts::Generator gen(2);
  check_gradients({param(gen, ts::Shape{4, 3}), param(gen, ts::Shape{3})},
                  [](const std::vector<ag::Variable>& v) {
                    return to_scalar(ag::add(v[0], v[1]));
                  });
}

TEST(Grad, Matmul2d) {
  ts::Generator gen(4);
  check_gradients({param(gen, ts::Shape{3, 4}), param(gen, ts::Shape{4, 2})},
                  [](const std::vector<ag::Variable>& v) {
                    return to_scalar(ag::matmul(v[0], v[1]));
                  });
}

TEST(Grad, Matmul3x2) {
  ts::Generator gen(5);
  check_gradients({param(gen, ts::Shape{2, 3, 4}), param(gen, ts::Shape{4, 2})},
                  [](const std::vector<ag::Variable>& v) {
                    return to_scalar(ag::matmul(v[0], v[1]));
                  });
}

TEST(Grad, Reshape) {
  ts::Generator gen(7);
  check_gradients({param(gen, ts::Shape{2, 3, 4})},
                  [](const std::vector<ag::Variable>& v) {
                    return to_scalar(ag::reshape(v[0], ts::Shape{4, 6}));
                  });
}

TEST(Grad, Activations) {
  ts::Generator gen(9);
  check_gradients({param(gen, ts::Shape{3, 3})},
                  [](const std::vector<ag::Variable>& v) {
                    return to_scalar(ag::gelu(ag::tanh(v[0])));
                  });
}

TEST(Grad, LayerNorm) {
  ts::Generator gen(12);
  check_gradients(
      {param(gen, ts::Shape{4, 6}), param(gen, ts::Shape{6}), param(gen, ts::Shape{6})},
      [](const std::vector<ag::Variable>& v) {
        return to_scalar(ag::layernorm(v[0], v[1], v[2]));
      },
      1e-3f, 5e-2f);
}

TEST(Grad, Embedding) {
  ts::Generator gen(13);
  const std::vector<int64_t> ids = {0, 2, 1, 2};
  check_gradients({param(gen, ts::Shape{4, 5})},
                  [&](const std::vector<ag::Variable>& v) {
                    return to_scalar(ag::embedding(v[0], ids));
                  });
}

TEST(Grad, GatherRows) {
  ts::Generator gen(14);
  const std::vector<int64_t> rows = {3, 0, 3};
  check_gradients({param(gen, ts::Shape{5, 4})},
                  [&](const std::vector<ag::Variable>& v) {
                    return to_scalar(ag::gather_rows(v[0], rows));
                  });
}

TEST(Grad, SoftmaxCrossEntropy) {
  ts::Generator gen(15);
  const std::vector<int64_t> labels = {1, 0, 2};
  check_gradients({param(gen, ts::Shape{3, 4})},
                  [&](const std::vector<ag::Variable>& v) {
                    return ag::softmax_cross_entropy(v[0], labels);
                  });
}

TEST(Grad, SoftmaxCrossEntropyMasked) {
  ts::Generator gen(16);
  const std::vector<int64_t> labels = {1, -100, 2, -100};
  check_gradients({param(gen, ts::Shape{4, 4})},
                  [&](const std::vector<ag::Variable>& v) {
                    return ag::softmax_cross_entropy_masked(v[0], labels, -100);
                  });
}

TEST(Grad, MseLoss) {
  ts::Generator gen(17);
  const ts::Tensor target = gen.normal(ts::Shape{6});
  check_gradients({param(gen, ts::Shape{6})},
                  [&](const std::vector<ag::Variable>& v) {
                    return ag::mse_loss(v[0], target);
                  });
}

TEST(Grad, CustomUnaryUsesProvidedVjp) {
  ag::Variable x = ag::Variable::leaf(ts::Tensor::scalar(4.0f), true);
  // Forward: x^2 computed externally; vjp supplied as 2x * g.
  ag::Variable y = ag::custom_unary(
      x, ts::Tensor::scalar(16.0f),
      [](const ts::Tensor& g, const ts::Tensor& in) {
        return ts::mul_scalar(g, 2.0f * in.item());
      },
      "square");
  EXPECT_EQ(y.op_name(), "square");
  y.backward();
  EXPECT_FLOAT_EQ(x.grad().item(), 8.0f);
}

// ---------- loss values ----------

TEST(Loss, CrossEntropyUniformLogits) {
  ag::Variable logits = ag::Variable::leaf(ts::Tensor::zeros(ts::Shape{2, 4}), true);
  ag::Variable loss = ag::softmax_cross_entropy(logits, {0, 3});
  EXPECT_NEAR(loss.value().item(), std::log(4.0f), 1e-5f);
}

TEST(Loss, MaskedCrossEntropyIgnoresAllIsZero) {
  ag::Variable logits = ag::Variable::leaf(ts::Tensor::zeros(ts::Shape{2, 3}), true);
  ag::Variable loss = ag::softmax_cross_entropy_masked(logits, {-100, -100}, -100);
  EXPECT_FLOAT_EQ(loss.value().item(), 0.0f);
}

TEST(Loss, MseLossValue) {
  ag::Variable p = ag::Variable::leaf(ts::Tensor(ts::Shape{2}, {1.0f, 3.0f}), true);
  ag::Variable loss = ag::mse_loss(p, ts::Tensor(ts::Shape{2}, {0.0f, 0.0f}));
  EXPECT_FLOAT_EQ(loss.value().item(), 5.0f);
}

TEST(Loss, LabelOutOfRangeThrows) {
  ag::Variable logits = ag::Variable::leaf(ts::Tensor::zeros(ts::Shape{1, 3}), true);
  EXPECT_THROW(ag::softmax_cross_entropy(logits, {3}), std::invalid_argument);
}

// ---------- dropout ----------

TEST(Dropout, IdentityInEval) {
  ts::Generator gen(18);
  ag::Variable x = ag::Variable::leaf(gen.normal(ts::Shape{100}), true);
  ag::Variable y = ag::dropout(x, 0.5f, gen, /*training=*/false);
  EXPECT_TRUE(y.same_node(x));
}

TEST(Dropout, PreservesExpectation) {
  ts::Generator gen(19);
  ag::Variable x = ag::Variable::leaf(ts::Tensor::ones(ts::Shape{40000}), true);
  ag::Variable y = ag::dropout(x, 0.25f, gen, /*training=*/true);
  EXPECT_NEAR(ts::mean_all(y.value()), 1.0f, 0.02f);
}

TEST(Dropout, GradientMatchesMask) {
  ts::Generator gen(20);
  ag::Variable x = ag::Variable::leaf(ts::Tensor::ones(ts::Shape{64}), true);
  ag::Variable y = ag::dropout(x, 0.5f, gen, true);
  y.backward(ts::Tensor::ones(ts::Shape{64}));
  // Gradient equals the realized mask values (0 or 2).
  const auto dy = y.value().data();
  const auto dg = x.grad().data();
  for (size_t i = 0; i < dy.size(); ++i) EXPECT_FLOAT_EQ(dg[i], dy[i]);
}

TEST(Broadcast, BiasGradMatchesFlatWalk) {
  // The bias of a broadcast add takes the upstream gradient summed over
  // every leading position. It must equal the flat walk `db[i % nb] += g[i]`
  // bit for bit: each bias element adds its rows in ascending order.
  ts::Generator gen(23);
  for (const auto& [xs, bs] :
       {std::pair{ts::Shape{512, 128}, ts::Shape{128}},
        std::pair{ts::Shape{5, 7, 33}, ts::Shape{7, 33}},
        std::pair{ts::Shape{3, 1, 17}, ts::Shape{1, 17}}}) {
    SCOPED_TRACE(xs.str() + " + " + bs.str());
    ag::Variable x = ag::Variable::leaf(gen.normal(xs), true);
    ag::Variable b = ag::Variable::leaf(gen.normal(bs), true);
    // Spread magnitudes so a different summation order would round
    // differently.
    ts::Tensor seed = gen.normal(xs);
    for (float& v : seed.data()) v *= std::exp(3.0f * v);
    ag::add(x, b).backward(seed);

    const auto dg = seed.data();
    std::vector<float> want(static_cast<size_t>(bs.numel()), 0.0f);
    for (size_t i = 0; i < dg.size(); ++i) want[i % want.size()] += dg[i];
    const auto got = b.grad().data();
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)), 0);
  }
}
