#include "autograd/functions.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/threadpool.h"
#include "tensor/check.h"
#include "tensor/kernels/kernel_table.h"
#include "tensor/ops.h"

namespace actcomp::autograd {

namespace ts = actcomp::tensor;
using detail::Node;

namespace {

// Chunking for parallel backward kernels; mirrors the grains in tensor/ops.
constexpr int64_t kEwGrain = 1 << 13;

int64_t row_grain(int64_t cols) {
  return std::max<int64_t>(1, kEwGrain / std::max<int64_t>(1, cols));
}

// Sum `g` (shaped like the broadcast output) down to `target` (the smaller,
// right-aligned operand shape): g viewed as [rows, numel(target)], summed
// over rows in ascending order.
ts::Tensor reduce_to_shape(const ts::Tensor& g, const ts::Shape& target) {
  if (g.shape() == target) return g;
  const int64_t nb = target.numel();
  ACTCOMP_ASSERT(nb > 0 && g.numel() % nb == 0, "broadcast reduce mismatch");
  return ts::sum_to_last(g.reshape(ts::Shape{g.numel() / nb, nb})).reshape(target);
}

}  // namespace

Variable add(const Variable& a, const Variable& b) {
  ts::Tensor out = ts::add(a.value(), b.value());
  return Variable::make(
      std::move(out), {a, b},
      [an = a.node(), bn = b.node()](Node& n) {
        if (an->requires_grad) an->accumulate(n.grad);
        if (bn->requires_grad) bn->accumulate(reduce_to_shape(n.grad, bn->value.shape()));
      },
      "add");
}

Variable matmul(const Variable& a, const Variable& b) {
  ts::Tensor out = ts::matmul(a.value(), b.value());
  return Variable::make(
      std::move(out), {a, b},
      [an = a.node(), bn = b.node()](Node& n) {
        // a folds to its [rows, k] matrix (b is [k, n]); dA = G Bᵀ and
        // dB = Aᵀ G read the transposes in place.
        const ts::Tensor& av = an->value;
        const int64_t rows = av.dim(0) * (av.rank() == 3 ? av.dim(1) : 1);
        const ts::Tensor g = n.grad.reshape(ts::Shape{rows, bn->value.dim(1)});
        if (an->requires_grad) {
          an->accumulate(ts::matmul2d(g, bn->value, false, /*trans_b=*/true)
                             .reshape(av.shape()));
        }
        if (bn->requires_grad) {
          bn->accumulate(ts::matmul2d(av.reshape(ts::Shape{rows, av.dim(-1)}), g,
                                      /*trans_a=*/true));
        }
      },
      "matmul");
}

Variable reshape(const Variable& a, ts::Shape shape) {
  ts::Tensor out = a.value().reshape(shape);
  return Variable::make(
      std::move(out), {a},
      [an = a.node()](Node& n) {
        an->accumulate(n.grad.reshape(an->value.shape()));
      },
      "reshape");
}

Variable gelu(const Variable& a) {
  return Variable::make(
      ts::gelu(a.value()), {a},
      [an = a.node()](Node& n) {
        an->accumulate(ts::mul(n.grad, ts::gelu_grad(an->value)));
      },
      "gelu");
}

Variable tanh(const Variable& a) {
  ts::Tensor out = ts::tanh(a.value());
  return Variable::make(
      out, {a},
      [an = a.node(), out](Node& n) {
        ts::Tensor g{out.shape()};
        auto dg = g.data();
        const auto dt = out.data();
        const auto dn = n.grad.data();
        core::parallel_for(0, static_cast<int64_t>(dg.size()), kEwGrain,
                           [&](int64_t b, int64_t e) {
                             for (int64_t idx = b; idx < e; ++idx) {
                               const size_t i = static_cast<size_t>(idx);
                               dg[i] = dn[i] * (1.0f - dt[i] * dt[i]);
                             }
                           });
        an->accumulate(g);
      },
      "tanh");
}

Variable bias_act(const Variable& x, const Variable& b, Act act) {
  if (act == Act::kNone) return add(x, b);
  // Tape-level fusion: the exact ts::add (which checks the broadcast) and
  // ts::gelu kernels run, under one node, so the bytes match the
  // composition's.
  ts::Tensor pre = ts::add(x.value(), b.value());
  ts::Tensor out = ts::gelu(pre);
  return Variable::make(
      std::move(out), {x, b},
      [xn = x.node(), bn = b.node(), pre](Node& n) {
        // Replicates the composition's backward byte for byte: the
        // activation's vjp lands on the pre-activation, then the bias takes
        // the broadcast-reduced copy.
        const ts::Tensor gy = ts::mul(n.grad, ts::gelu_grad(pre));
        if (xn->requires_grad) xn->accumulate(gy);
        if (bn->requires_grad) {
          bn->accumulate(reduce_to_shape(gy, bn->value.shape()));
        }
      },
      "bias_act");
}

Variable layernorm(const Variable& x, const Variable& gamma, const Variable& beta,
                   float eps) {
  const ts::Tensor& xv = x.value();
  const int64_t h = xv.dim(-1);
  ACTCOMP_CHECK(gamma.value().shape() == ts::Shape{h} &&
                    beta.value().shape() == ts::Shape{h},
                "layernorm affine params must be [" << h << "]");
  const auto mo = ts::row_moments(xv, eps);
  const int64_t rows = h == 0 ? 0 : xv.numel() / h;

  ts::Tensor xhat{xv.shape()};
  {
    const auto dx = xv.data();
    auto dh = xhat.data();
    const auto dm = mo.mean.data();
    const auto dr = mo.rstd.data();
    const auto& kt = ts::kernels::active_kernels();
    core::parallel_for(0, rows, row_grain(h), [&](int64_t r0, int64_t r1) {
      kt.ln_xhat(dx.data(), dm.data(), dr.data(), dh.data(), r0, r1, h);
    });
  }
  ts::Tensor out = ts::add(ts::mul(xhat, gamma.value()), beta.value());

  return Variable::make(
      std::move(out), {x, gamma, beta},
      [xn = x.node(), gn = gamma.node(), bn = beta.node(), xhat, rstd = mo.rstd,
       rows, h](Node& n) {
        const auto dg = n.grad.data();
        const auto dh = xhat.data();
        if (gn->requires_grad) {
          ts::Tensor ggamma{ts::Shape{h}};
          auto d = ggamma.data();
          // Column-parallel with the row walk kept ascending per column, so
          // each gamma element sees the exact same addition order as the
          // old row-major loop nest.
          core::parallel_for(0, h, row_grain(rows), [&](int64_t c0, int64_t c1) {
            for (int64_t c = c0; c < c1; ++c) {
              float s = 0.0f;
              for (int64_t r = 0; r < rows; ++r) {
                const size_t i = static_cast<size_t>(r * h + c);
                s += dg[i] * dh[i];
              }
              d[static_cast<size_t>(c)] = s;
            }
          });
          gn->accumulate(ggamma);
        }
        if (bn->requires_grad) bn->accumulate(ts::sum_to_last(n.grad));
        if (xn->requires_grad) {
          ts::Tensor gx{xn->value.shape()};
          auto dx = gx.data();
          const auto dgam = gn->value.data();
          const auto drs = rstd.data();
          core::parallel_for(0, rows, row_grain(h), [&](int64_t r0, int64_t r1) {
            for (int64_t r = r0; r < r1; ++r) {
              // dy = g * gamma;  dx = rstd * (dy - mean(dy) - xhat * mean(dy*xhat))
              double s1 = 0.0, s2 = 0.0;
              for (int64_t c = 0; c < h; ++c) {
                const size_t i = static_cast<size_t>(r * h + c);
                const float dy = dg[i] * dgam[static_cast<size_t>(c)];
                s1 += dy;
                s2 += static_cast<double>(dy) * dh[i];
              }
              const float m1 = static_cast<float>(s1 / static_cast<double>(h));
              const float m2 = static_cast<float>(s2 / static_cast<double>(h));
              const float rs = drs[static_cast<size_t>(r)];
              for (int64_t c = 0; c < h; ++c) {
                const size_t i = static_cast<size_t>(r * h + c);
                const float dy = dg[i] * dgam[static_cast<size_t>(c)];
                dx[i] = rs * (dy - m1 - dh[i] * m2);
              }
            }
          });
          xn->accumulate(gx);
        }
      },
      "layernorm");
}

Variable dropout(const Variable& a, float p, ts::Generator& gen, bool training) {
  ACTCOMP_CHECK(p >= 0.0f && p < 1.0f, "dropout p must be in [0, 1), got " << p);
  if (!training || p == 0.0f) return a;
  const float scale = 1.0f / (1.0f - p);
  ts::Tensor mask{a.value().shape()};
  for (float& m : mask.data()) m = gen.bernoulli(p) ? 0.0f : scale;
  ts::Tensor out = ts::mul(a.value(), mask);
  return Variable::make(
      std::move(out), {a},
      [an = a.node(), mask](Node& n) { an->accumulate(ts::mul(n.grad, mask)); },
      "dropout");
}

Variable gather_rows(const Variable& x, const std::vector<int64_t>& rows) {
  const ts::Tensor& xv = x.value();
  ACTCOMP_CHECK(xv.rank() == 2, "gather_rows needs a [N, h] input, got "
                                    << xv.shape().str());
  const int64_t N = xv.dim(0);
  const int64_t h = xv.dim(1);
  ts::Tensor out{ts::Shape{static_cast<int64_t>(rows.size()), h}};
  const auto dx = xv.data();
  auto dout = out.data();
  for (size_t i = 0; i < rows.size(); ++i) {
    ACTCOMP_CHECK(rows[i] >= 0 && rows[i] < N,
                  "gather_rows index " << rows[i] << " out of range [0, " << N << ")");
    for (int64_t c = 0; c < h; ++c) {
      dout[i * static_cast<size_t>(h) + static_cast<size_t>(c)] =
          dx[static_cast<size_t>(rows[i] * h + c)];
    }
  }
  return Variable::make(
      std::move(out), {x},
      [xn = x.node(), rows, h](Node& n) {
        ts::Tensor g{xn->value.shape()};
        auto dg = g.data();
        const auto dn = n.grad.data();
        for (size_t i = 0; i < rows.size(); ++i) {
          for (int64_t c = 0; c < h; ++c) {
            dg[static_cast<size_t>(rows[i] * h + c)] +=
                dn[i * static_cast<size_t>(h) + static_cast<size_t>(c)];
          }
        }
        xn->accumulate(g);
      },
      "gather_rows");
}

Variable embedding(const Variable& table, const std::vector<int64_t>& ids) {
  const ts::Tensor& tv = table.value();
  ACTCOMP_CHECK(tv.rank() == 2, "embedding table must be [V, h]");
  const int64_t V = tv.dim(0);
  const int64_t h = tv.dim(1);
  ts::Tensor out{ts::Shape{static_cast<int64_t>(ids.size()), h}};
  const auto dt = tv.data();
  auto dout = out.data();
  for (size_t i = 0; i < ids.size(); ++i) {
    ACTCOMP_CHECK(ids[i] >= 0 && ids[i] < V,
                  "embedding id " << ids[i] << " out of range [0, " << V << ")");
    for (int64_t c = 0; c < h; ++c) {
      dout[i * static_cast<size_t>(h) + static_cast<size_t>(c)] =
          dt[static_cast<size_t>(ids[i] * h + c)];
    }
  }
  return Variable::make(
      std::move(out), {table},
      [tn = table.node(), ids, h](Node& n) {
        ts::Tensor gt{tn->value.shape()};
        auto dg = gt.data();
        const auto dn = n.grad.data();
        for (size_t i = 0; i < ids.size(); ++i) {
          for (int64_t c = 0; c < h; ++c) {
            dg[static_cast<size_t>(ids[i] * h + c)] +=
                dn[i * static_cast<size_t>(h) + static_cast<size_t>(c)];
          }
        }
        tn->accumulate(gt);
      },
      "embedding");
}

namespace {

Variable cross_entropy_impl(const Variable& logits,
                            const std::vector<int64_t>& labels,
                            int64_t ignore_index, bool use_ignore,
                            const char* name) {
  const ts::Tensor& lv = logits.value();
  ACTCOMP_CHECK(lv.rank() == 2, name << " needs [N, C] logits, got " << lv.shape().str());
  const int64_t N = lv.dim(0);
  const int64_t C = lv.dim(1);
  ACTCOMP_CHECK(static_cast<int64_t>(labels.size()) == N,
                name << ": " << labels.size() << " labels for " << N << " rows");
  const ts::Tensor logp = ts::log_softmax_last(lv);
  const auto dlp = logp.data();
  double loss = 0.0;
  int64_t counted = 0;
  for (int64_t i = 0; i < N; ++i) {
    if (use_ignore && labels[static_cast<size_t>(i)] == ignore_index) continue;
    const int64_t y = labels[static_cast<size_t>(i)];
    ACTCOMP_CHECK(y >= 0 && y < C, name << ": label " << y << " out of range");
    loss -= dlp[static_cast<size_t>(i * C + y)];
    ++counted;
  }
  const float denom = counted > 0 ? static_cast<float>(counted) : 1.0f;
  ts::Tensor out = ts::Tensor::scalar(static_cast<float>(loss) / denom);
  return Variable::make(
      std::move(out), {logits},
      [ln = logits.node(), labels, logp, N, C, denom, use_ignore,
       ignore_index](Node& n) {
        const float seed = n.grad.item();
        ts::Tensor g{ln->value.shape()};
        auto dg = g.data();
        const auto dlp2 = logp.data();
        core::parallel_for(0, N, row_grain(C), [&](int64_t i0, int64_t i1) {
          for (int64_t i = i0; i < i1; ++i) {
            const int64_t y = labels[static_cast<size_t>(i)];
            if (use_ignore && y == ignore_index) continue;  // zero grad row
            for (int64_t c = 0; c < C; ++c) {
              const size_t idx = static_cast<size_t>(i * C + c);
              float p = std::exp(dlp2[idx]);
              if (c == y) p -= 1.0f;
              dg[idx] = seed * p / denom;
            }
          }
        });
        ln->accumulate(g);
      },
      name);
}

}  // namespace

Variable softmax_cross_entropy(const Variable& logits,
                               const std::vector<int64_t>& labels) {
  return cross_entropy_impl(logits, labels, 0, false, "softmax_cross_entropy");
}

Variable softmax_cross_entropy_masked(const Variable& logits,
                                      const std::vector<int64_t>& labels,
                                      int64_t ignore_index) {
  return cross_entropy_impl(logits, labels, ignore_index, true,
                            "softmax_cross_entropy_masked");
}

Variable mse_loss(const Variable& pred, const ts::Tensor& target) {
  ACTCOMP_CHECK(pred.value().shape() == target.shape(),
                "mse_loss shape mismatch: " << pred.value().shape().str() << " vs "
                                            << target.shape().str());
  const int64_t N = pred.value().numel();
  ACTCOMP_CHECK(N > 0, "mse_loss of empty tensors");
  const ts::Tensor diff = ts::sub(pred.value(), target);
  double s = 0.0;
  for (float v : diff.data()) s += static_cast<double>(v) * v;
  ts::Tensor out = ts::Tensor::scalar(static_cast<float>(s / static_cast<double>(N)));
  return Variable::make(
      std::move(out), {pred},
      [pn = pred.node(), diff, N](Node& n) {
        const float seed = n.grad.item();
        pn->accumulate(ts::mul_scalar(diff, 2.0f * seed / static_cast<float>(N)));
      },
      "mse_loss");
}

Variable custom_unary(
    const Variable& input, ts::Tensor output_value,
    std::function<ts::Tensor(const ts::Tensor&, const ts::Tensor&)> vjp,
    std::string op_name) {
  return Variable::make(
      std::move(output_value), {input},
      [in = input.node(), vjp = std::move(vjp)](Node& n) {
        in->accumulate(vjp(n.grad, in->value));
      },
      std::move(op_name));
}

}  // namespace actcomp::autograd
