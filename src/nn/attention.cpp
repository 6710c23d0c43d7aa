#include "nn/attention.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "autograd/functions.h"
#include "core/threadpool.h"
#include "obs/profiler.h"
#include "tensor/check.h"
#include "tensor/kernels/kernel_table.h"

namespace actcomp::nn {

namespace ag = actcomp::autograd;
namespace ts = actcomp::tensor;

MultiHeadAttention::MultiHeadAttention(int64_t hidden, int64_t num_heads,
                                       tensor::Generator& gen)
    : hidden_(hidden),
      heads_(num_heads),
      wq_(hidden, hidden, gen),
      wk_(hidden, hidden, gen),
      wv_(hidden, hidden, gen),
      wo_(hidden, hidden, gen) {
  ACTCOMP_CHECK(num_heads > 0 && hidden % num_heads == 0,
                "hidden " << hidden << " not divisible by heads " << num_heads);
}

namespace {

/// The additive mask the row pass folds in: a [b, total] key mask added to
/// every query of sequence b, or a causal one, where query i sits at
/// position causal_start + i and sees keys 0 .. causal_start + i; later keys
/// get -inf. -inf (not the finite -1e4 of the padding mask) makes masked
/// lanes exactly 0.0 after softmax, so trailing positions perturb neither
/// the normalizer nor the context sum. That keeps the cached decode
/// bit-identical to the full causal forward. A row that sees every key is
/// not masked at all, which covers every one-token decode step.
struct Mask {
  const ts::Tensor* key_mask = nullptr;
  int64_t causal_start = -1;  ///< < 0: not causal
};

/// Where each head's operands start. Head g is head g % heads of sequence
/// g / heads; q, the context and their gradients are [b, n, h] rows, v is
/// [b, ·, h] rows, and k is either rows like v or, in the KV cache, one
/// [h, cap] block of Kᵀ per sequence. Within a head, Kᵀ[d, j] sits at
/// d * kt_rs + j * kt_cs, and the scores are a contiguous [n, total] block.
struct Layout {
  int64_t heads, dh, n, h, total;
  int64_t kseq, vseq;    ///< floats per sequence of k and v
  int64_t kt_rs, kt_cs;  ///< (1, h) for key rows, (cap, 1) for the cache
  int64_t q(int64_t g) const { return (g / heads) * n * h + (g % heads) * dh; }
  int64_t k(int64_t g) const {
    return (g / heads) * kseq + (g % heads) * dh * kt_rs;
  }
  int64_t v(int64_t g) const { return (g / heads) * vseq + (g % heads) * dh; }
  int64_t s(int64_t g) const { return g * n * total; }
};

/// Scaled dot-product attention over `heads` heads, as one tape node whose
/// parents are (q, k, v), over `total` key positions. That parent order
/// makes backward reach the v, k and q projections in that order, so the
/// layer input sums its gradients as residual, V, K, Q: the rounding that
/// TrainingPlane.BytesMatchPinnedDigests pins. `keys_transposed`
/// selects the cache's Kᵀ layout for k (see Layout). Each head's Q, K and V
/// are read in place through the GEMM's strides, and each head's context is
/// written into the [b, n, h] output with ldc = h, so no head is split or
/// merged by a copy. The 1/sqrt(dh) scale and the mask fold into softmax's
/// row pass, in the per-element order s * scale, + mask, then max/exp/sum.
ag::Variable attend(const ag::Variable& q, const ag::Variable& k,
                    const ag::Variable& v, int64_t heads, int64_t total,
                    bool keys_transposed, const Mask& mask) {
  ACTCOMP_ASSERT(!keys_transposed || !k.requires_grad(),
                 "attention: keys stored transposed take no gradient");
  const ts::Tensor& qv = q.value();
  const int64_t b = qv.dim(0), n = qv.dim(1), h = qv.dim(2);
  const int64_t kt_rs = keys_transposed ? k.value().dim(2) : 1;
  const Layout L{heads, h / heads, n, h, total, k.value().numel() / b,
                 v.value().numel() / b, kt_rs, keys_transposed ? 1 : h};
  const int64_t groups = b * heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(L.dh));
  const int64_t row_grain = core::row_grain(total);
  const ts::kernels::KernelTable& kt = ts::kernels::active_kernels();

  ts::Tensor p{ts::Shape{groups, n, total}};  // scores, then probabilities
  ts::Tensor ctx{ts::Shape{b, n, h}};
  const float* qd = qv.data().data();
  const float* kd = k.value().data().data();
  const float* vd = v.value().data().data();
  float* pd = p.data().data();
  {
    ACTCOMP_PROFILE("tensor.matmul_batched");
    core::parallel_for(0, groups, 1, [&](int64_t g0, int64_t g1) {
      for (int64_t g = g0; g < g1; ++g) {  // S = Q Kᵀ
        kt.gemm_into(qd + L.q(g), h, 1, kd + L.k(g), L.kt_rs, L.kt_cs,
                     pd + L.s(g), total, n, L.dh, total);
      }
    });
  }
  {
    ACTCOMP_PROFILE("tensor.softmax");
    const float ninf = -std::numeric_limits<float>::infinity();
    const float* km = mask.key_mask ? mask.key_mask->data().data() : nullptr;
    core::parallel_for(0, groups * n, row_grain, [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        float* row = pd + r * total;
        for (int64_t j = 0; j < total; ++j) row[j] = row[j] * scale;
        if (km != nullptr) {
          const float* mrow = km + (r / n / heads) * total;
          for (int64_t j = 0; j < total; ++j) row[j] = row[j] + mrow[j];
        }
        if (mask.causal_start >= 0) {
          for (int64_t j = mask.causal_start + r % n + 1; j < total; ++j) {
            row[j] = row[j] + ninf;
          }
        }
        const float m = kt.row_max(row, total);
        double z = 0.0;
        for (int64_t j = 0; j < total; ++j) {
          const float e = std::exp(row[j] - m);
          row[j] = e;
          z += e;
        }
        kt.ew_scale(row, static_cast<float>(1.0 / z), 0, total);
      }
    });
  }
  {
    ACTCOMP_PROFILE("tensor.matmul_batched");
    float* cd = ctx.data().data();
    core::parallel_for(0, groups, 1, [&](int64_t g0, int64_t g1) {
      for (int64_t g = g0; g < g1; ++g) {  // O = P V
        kt.gemm_into(pd + L.s(g), total, 1, vd + L.v(g), h, 1, cd + L.q(g), h,
                     n, total, L.dh);
      }
    });
  }

  return ag::Variable::make(
      std::move(ctx), {q, k, v},
      [qn = q.node(), kn = k.node(), vn = v.node(), p, L, groups, scale,
       row_grain](ag::detail::Node& node) {
        const int64_t n = L.n, h = L.h, total = L.total;
        const ts::kernels::KernelTable& kt = ts::kernels::active_kernels();
        const float* go = node.grad.data().data();
        const float* qd = qn->value.data().data();
        const float* kd = kn->value.data().data();
        const float* vd = vn->value.data().data();
        const float* pd = p.data().data();
        const bool need_ds = qn->requires_grad || kn->requires_grad;
        ts::Tensor ds{p.shape()};  // dP, then dS
        ts::Tensor dq, dk, dv;
        if (qn->requires_grad) dq = ts::Tensor(qn->value.shape());
        if (kn->requires_grad) dk = ts::Tensor(kn->value.shape());
        if (vn->requires_grad) dv = ts::Tensor(vn->value.shape());
        float* dsd = ds.data().data();
        {
          ACTCOMP_PROFILE("tensor.matmul_batched");
          core::parallel_for(0, groups, 1, [&](int64_t g0, int64_t g1) {
            for (int64_t g = g0; g < g1; ++g) {
              if (need_ds) {  // dP = dO Vᵀ
                kt.gemm_into(go + L.q(g), h, 1, vd + L.v(g), 1, h,
                             dsd + L.s(g), total, n, L.dh, total);
              }
              if (vn->requires_grad) {  // dV = Pᵀ dO
                kt.gemm_into(pd + L.s(g), 1, total, go + L.q(g), h, 1,
                             dv.data().data() + L.v(g), h, total, n, L.dh);
              }
            }
          });
        }
        if (need_ds) {
          // Softmax's backward, then the scale: dS = P (dP - dot) * scale.
          core::parallel_for(0, groups * n, row_grain, [&](int64_t r0, int64_t r1) {
            for (int64_t r = r0; r < r1; ++r) {
              float* row = dsd + r * total;
              const float* prow = pd + r * total;
              double dot = 0.0;
              for (int64_t j = 0; j < total; ++j) {
                dot += static_cast<double>(row[j]) * prow[j];
              }
              const float dotf = static_cast<float>(dot);
              for (int64_t j = 0; j < total; ++j) {
                const float d = prow[j] * (row[j] - dotf);
                row[j] = d * scale;
              }
            }
          });
          ACTCOMP_PROFILE("tensor.matmul_batched");
          core::parallel_for(0, groups, 1, [&](int64_t g0, int64_t g1) {
            for (int64_t g = g0; g < g1; ++g) {
              if (qn->requires_grad) {  // dQ = dS K
                kt.gemm_into(dsd + L.s(g), total, 1, kd + L.k(g), L.kt_cs,
                             L.kt_rs, dq.data().data() + L.q(g), h, n, total,
                             L.dh);
              }
              if (kn->requires_grad) {  // dK = dSᵀ Q
                kt.gemm_into(dsd + L.s(g), 1, total, qd + L.q(g), h, 1,
                             dk.data().data() + L.k(g), h, total, n, L.dh);
              }
            }
          });
        }
        if (qn->requires_grad) qn->accumulate(dq);
        if (kn->requires_grad) kn->accumulate(dk);
        if (vn->requires_grad) vn->accumulate(dv);
      },
      "attention");
}

}  // namespace

ag::Variable MultiHeadAttention::forward(const ag::Variable& x,
                                         const ts::Tensor& key_mask) const {
  const ts::Tensor& xv = x.value();
  ACTCOMP_CHECK(xv.rank() == 3 && xv.dim(2) == hidden_,
                "attention expects [b, s, " << hidden_ << "], got "
                                            << xv.shape().str());
  const int64_t b = xv.dim(0), s = xv.dim(1);
  Mask mask;
  if (key_mask.numel() > 0) {
    ACTCOMP_CHECK(key_mask.shape() == (ts::Shape{b, s}),
                  "key_mask must be [b, s], got " << key_mask.shape().str());
    mask.key_mask = &key_mask;
  }
  const ag::Variable q = wq_.forward(x);
  const ag::Variable k = wk_.forward(x);
  const ag::Variable v = wv_.forward(x);
  return wo_.forward(attend(q, k, v, heads_, s, false, mask));
}

ag::Variable MultiHeadAttention::forward_causal(const ag::Variable& x) const {
  const ts::Tensor& xv = x.value();
  ACTCOMP_CHECK(xv.rank() == 3 && xv.dim(2) == hidden_,
                "causal attention expects [b, s, " << hidden_ << "], got "
                                                   << xv.shape().str());
  const ag::Variable q = wq_.forward(x);
  const ag::Variable k = wk_.forward(x);
  const ag::Variable v = wv_.forward(x);
  return wo_.forward(attend(q, k, v, heads_, xv.dim(1), false, Mask{nullptr, 0}));
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
  const int64_t start = cache.len();
  const int64_t total = start + xv.dim(1);
  const ag::Variable q = wq_.forward(x);
  const ag::Variable k = wk_.forward(x);
  const ag::Variable v = wv_.forward(x);
  cache.append(layer, k.value(), v.value());
  // The cache's own storage, read in place: keys transposed, values as rows.
  const KvCache::Storage kv = cache.storage(layer, total);
  return wo_.forward(attend(q, ag::Variable::leaf(kv.keys_t),
                            ag::Variable::leaf(kv.values), heads_, total,
                            true, Mask{nullptr, start}));
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
