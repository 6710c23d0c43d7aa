#include "nn/attention.h"

#include <cmath>
#include <limits>

#include "autograd/functions.h"
#include "tensor/check.h"

namespace actcomp::nn {

namespace ag = actcomp::autograd;
namespace ts = actcomp::tensor;

MultiHeadAttention::MultiHeadAttention(int64_t hidden, int64_t num_heads,
                                       tensor::Generator& gen)
    : hidden_(hidden),
      heads_(num_heads),
      head_dim_(hidden / num_heads),
      wq_(hidden, hidden, gen),
      wk_(hidden, hidden, gen),
      wv_(hidden, hidden, gen),
      wo_(hidden, hidden, gen) {
  ACTCOMP_CHECK(num_heads > 0 && hidden % num_heads == 0,
                "hidden " << hidden << " not divisible by heads " << num_heads);
}

namespace {

/// [b, s, h] -> [b*nh, s, dh]
ag::Variable split_heads(const ag::Variable& x, int64_t b, int64_t s, int64_t nh,
                         int64_t dh) {
  ag::Variable r = ag::reshape(x, ts::Shape{b, s, nh, dh});
  r = ag::permute(r, {0, 2, 1, 3});  // [b, nh, s, dh]
  return ag::reshape(r, ts::Shape{b * nh, s, dh});
}

/// Additive causal mask [groups, n, total]: query row i sits at global
/// position start+i and sees keys 0..start+i; later keys get -inf. -inf (not
/// the finite -1e4 the padding mask uses) makes masked lanes exactly 0.0
/// after softmax, which is what keeps the cached decode bit-identical to the
/// full causal forward: trailing zero terms perturb neither the softmax
/// normalizer nor the context accumulation.
ts::Tensor causal_mask(int64_t groups, int64_t n, int64_t total, int64_t start) {
  ts::Tensor m{ts::Shape{groups, n, total}};
  const float ninf = -std::numeric_limits<float>::infinity();
  auto d = m.data();
  for (int64_t g = 0; g < groups; ++g) {
    for (int64_t i = 0; i < n; ++i) {
      float* row = d.data() + static_cast<size_t>((g * n + i) * total);
      for (int64_t j = start + i + 1; j < total; ++j) row[j] = ninf;
    }
  }
  return m;
}

}  // namespace

ag::Variable MultiHeadAttention::forward(const ag::Variable& x,
                                         const ts::Tensor& key_mask) const {
  const ts::Tensor& xv = x.value();
  ACTCOMP_CHECK(xv.rank() == 3 && xv.dim(2) == hidden_,
                "attention expects [b, s, " << hidden_ << "], got "
                                            << xv.shape().str());
  const int64_t b = xv.dim(0), s = xv.dim(1);

  ag::Variable q = split_heads(wq_.forward(x), b, s, heads_, head_dim_);
  ag::Variable k = split_heads(wk_.forward(x), b, s, heads_, head_dim_);
  ag::Variable v = split_heads(wv_.forward(x), b, s, heads_, head_dim_);

  ag::Variable scores = ag::matmul(q, ag::transpose_last2(k));  // [b*nh, s, s]
  scores = ag::mul_scalar(scores, 1.0f / std::sqrt(static_cast<float>(head_dim_)));

  if (key_mask.numel() > 0) {
    ACTCOMP_CHECK(key_mask.shape() == (ts::Shape{b, s}),
                  "key_mask must be [b, s], got " << key_mask.shape().str());
    // Expand the per-key mask to [b*nh, s, s]: every (query row, head) sees
    // the same additive bias over keys.
    ts::Tensor full{ts::Shape{b * heads_, s, s}};
    const auto dm = key_mask.data();
    auto df = full.data();
    for (int64_t bi = 0; bi < b; ++bi) {
      for (int64_t hrow = 0; hrow < heads_ * s; ++hrow) {
        for (int64_t key = 0; key < s; ++key) {
          df[static_cast<size_t>(((bi * heads_ * s) + hrow) * s + key)] =
              dm[static_cast<size_t>(bi * s + key)];
        }
      }
    }
    scores = ag::add(scores, ag::Variable::leaf(std::move(full)));
  }

  ag::Variable attn = ag::softmax_last(scores);
  ag::Variable ctx = ag::matmul(attn, v);  // [b*nh, s, dh]
  ctx = ag::reshape(ctx, ts::Shape{b, heads_, s, head_dim_});
  ctx = ag::permute(ctx, {0, 2, 1, 3});  // [b, s, nh, dh]
  ctx = ag::reshape(ctx, ts::Shape{b, s, hidden_});
  return wo_.forward(ctx);
}

ag::Variable MultiHeadAttention::forward_causal(const ag::Variable& x) const {
  const ts::Tensor& xv = x.value();
  ACTCOMP_CHECK(xv.rank() == 3 && xv.dim(2) == hidden_,
                "causal attention expects [b, s, " << hidden_ << "], got "
                                                   << xv.shape().str());
  const int64_t b = xv.dim(0), s = xv.dim(1);

  ag::Variable q = split_heads(wq_.forward(x), b, s, heads_, head_dim_);
  ag::Variable k = split_heads(wk_.forward(x), b, s, heads_, head_dim_);
  ag::Variable v = split_heads(wv_.forward(x), b, s, heads_, head_dim_);

  ag::Variable scores = ag::matmul(q, ag::transpose_last2(k));  // [b*nh, s, s]
  scores = ag::mul_scalar(scores, 1.0f / std::sqrt(static_cast<float>(head_dim_)));
  scores = ag::add(scores, ag::Variable::leaf(causal_mask(b * heads_, s, s, 0)));

  ag::Variable attn = ag::softmax_last(scores);
  ag::Variable ctx = ag::matmul(attn, v);  // [b*nh, s, dh]
  ctx = ag::reshape(ctx, ts::Shape{b, heads_, s, head_dim_});
  ctx = ag::permute(ctx, {0, 2, 1, 3});
  ctx = ag::reshape(ctx, ts::Shape{b, s, hidden_});
  return wo_.forward(ctx);
}

ag::Variable MultiHeadAttention::forward_cached(const ag::Variable& x,
                                                KvCache& cache,
                                                int64_t layer) const {
  const ts::Tensor& xv = x.value();
  ACTCOMP_CHECK(xv.rank() == 3 && xv.dim(2) == hidden_,
                "cached attention expects [b, n, " << hidden_ << "], got "
                                                   << xv.shape().str());
  ACTCOMP_CHECK(cache.hidden() == hidden_ && cache.batch() == xv.dim(0),
                "cache shape [" << cache.batch() << ", ·, " << cache.hidden()
                                << "] does not match input "
                                << xv.shape().str());
  const int64_t b = xv.dim(0), n = xv.dim(1);
  const int64_t start = cache.len();
  const int64_t total = start + n;

  ag::Variable q = wq_.forward(x);
  ag::Variable k = wk_.forward(x);
  ag::Variable v = wv_.forward(x);
  cache.append(layer, k.value(), v.value());

  // Keys and values leave the cache already split into heads (keys
  // transposed), so each costs one copy of the cache per token.
  ag::Variable q3 = split_heads(q, b, n, heads_, head_dim_);
  ag::Variable kt =
      ag::Variable::leaf(cache.keys_t_by_head(layer, total, heads_));  // [b*nh, dh, total]
  ag::Variable v3 = ag::Variable::leaf(cache.values_by_head(layer, total, heads_));

  ag::Variable scores = ag::matmul(q3, kt);  // [b*nh, n, total]
  scores = ag::mul_scalar(scores, 1.0f / std::sqrt(static_cast<float>(head_dim_)));
  scores =
      ag::add(scores, ag::Variable::leaf(causal_mask(b * heads_, n, total, start)));

  ag::Variable attn = ag::softmax_last(scores);
  ag::Variable ctx = ag::matmul(attn, v3);  // [b*nh, n, dh]
  ctx = ag::reshape(ctx, ts::Shape{b, heads_, n, head_dim_});
  ctx = ag::permute(ctx, {0, 2, 1, 3});
  ctx = ag::reshape(ctx, ts::Shape{b, n, hidden_});
  return wo_.forward(ctx);
}

std::vector<NamedParam> MultiHeadAttention::named_parameters() const {
  std::vector<NamedParam> out;
  for (auto& p : prefixed("wq", wq_.named_parameters())) out.push_back(std::move(p));
  for (auto& p : prefixed("wk", wk_.named_parameters())) out.push_back(std::move(p));
  for (auto& p : prefixed("wv", wv_.named_parameters())) out.push_back(std::move(p));
  for (auto& p : prefixed("wo", wo_.named_parameters())) out.push_back(std::move(p));
  return out;
}

}  // namespace actcomp::nn
