// Multi-head self-attention (the BERT encoder flavour). The three forwards
// are thin callers of one attention core (attention.cpp): one tape node that
// reads every head's Q, K and V in place through the strided GEMM.
#pragma once

#include "nn/kv_cache.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace actcomp::nn {

class MultiHeadAttention final : public Module {
 public:
  MultiHeadAttention(int64_t hidden, int64_t num_heads, tensor::Generator& gen);

  /// x: [b, s, h]. `key_mask` is either empty (no padding) or a [b, s] tensor
  /// that is 0 at valid positions and a large negative value at padded ones;
  /// it is added to every query's attention scores.
  autograd::Variable forward(const autograd::Variable& x,
                             const tensor::Tensor& key_mask) const;

  /// Full-sequence causal self-attention (no cache): query t attends keys
  /// 0..t; later keys are masked with -inf. The reference path the KV-cache
  /// decode is pinned against (tests/kv_cache_test.cpp).
  autograd::Variable forward_causal(const autograd::Variable& x) const;

  /// Incremental causal attention: projects k/v for the n new positions in
  /// `x` ([b, n, h]), appends them to `cache` under `layer`, and attends the
  /// new queries over every cached position, reading the cache's storage in
  /// place. The cache step must be open (KvCache::begin_step).
  autograd::Variable forward_cached(const autograd::Variable& x, KvCache& cache,
                                    int64_t layer) const;

  std::vector<NamedParam> named_parameters() const override;

  int64_t hidden() const { return hidden_; }

 private:
  int64_t hidden_;
  int64_t heads_;
  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;
};

}  // namespace actcomp::nn
