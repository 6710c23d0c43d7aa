// KvCache: per-layer key/value storage for autoregressive decoding.
//
// The cache holds, for every encoder layer, the projected keys and values of
// every committed position as [batch, capacity, hidden] tensors sharing one
// position counter. A decode step is a transaction: begin_step(n) reserves n
// positions (growing storage if needed), each layer append()s its k/v rows as
// its attention runs, and commit() advances the shared length — so a throw
// mid-forward leaves the committed prefix intact and the step can simply be
// retried. The committed length only grows: a new sequence takes a new
// cache.
//
// Contract pinned by tests/kv_cache_test.cpp: decoding token-by-token through
// the cache reproduces the full-sequence causal forward byte-for-byte at
// every prefix length and at any thread count. This works because every
// kernel on the path accumulates per output element as a left fold in
// ascending reduction order regardless of tensor shape, and the causal mask
// uses -inf (exp(-inf) == 0.0 exactly), so a query's softmax row and context
// sum are unchanged by the trailing positions it cannot see.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace actcomp::nn {

class KvCache {
 public:
  /// A cache for `num_layers` layers over a [batch, ·, hidden] stream.
  /// `capacity` pre-reserves positions (0 = grow on demand).
  KvCache(int64_t num_layers, int64_t batch, int64_t hidden,
          int64_t capacity = 0);

  int64_t num_layers() const { return static_cast<int64_t>(slots_.size()); }
  int64_t batch() const { return batch_; }
  int64_t hidden() const { return hidden_; }
  /// Committed positions (== the next position to be written).
  int64_t len() const { return len_; }
  int64_t capacity() const { return cap_; }
  /// Positions reserved by an open step (0 when no step is open).
  int64_t pending() const { return step_open_ ? step_n_ : 0; }

  /// Opens a step of `n` new positions, growing storage if len()+n exceeds
  /// capacity (growth preserves all committed rows).
  void begin_step(int64_t n);
  /// Stores `k`/`v` ([batch, n, hidden]) for `layer` at positions
  /// [len(), len()+n). Each layer appends exactly once per step.
  void append(int64_t layer, const tensor::Tensor& k, const tensor::Tensor& v);
  /// Commits the open step: every layer must have appended.
  void commit();

  /// The first `total` cached key/value rows of `layer` as [batch, total,
  /// hidden]. Within an open step, rows the layer just appended are visible.
  tensor::Tensor keys(int64_t layer, int64_t total) const;
  tensor::Tensor values(int64_t layer, int64_t total) const;

  /// The same rows split into `heads` heads, in the layouts attention
  /// multiplies by: keys transposed per head as [batch*heads, hidden/heads,
  /// total], values as [batch*heads, total, hidden/heads]. Each is one copy
  /// out of the cache, equal to transpose_last2 / the head split of
  /// keys() / values().
  tensor::Tensor keys_t_by_head(int64_t layer, int64_t total, int64_t heads) const;
  tensor::Tensor values_by_head(int64_t layer, int64_t total, int64_t heads) const;

 private:
  struct Slot {
    tensor::Tensor k;  // [batch, cap, hidden]
    tensor::Tensor v;  // [batch, cap, hidden]
    bool appended = false;  ///< this layer's rows for the open step
  };

  void grow(int64_t needed);
  /// The slot of `layer`, after checking that its first `total` rows are
  /// cached.
  const Slot& readable(int64_t layer, int64_t total) const;
  tensor::Tensor gather(const tensor::Tensor& store, int64_t total) const;
  int64_t head_dim(int64_t heads) const;

  int64_t batch_;
  int64_t hidden_;
  int64_t len_ = 0;
  int64_t cap_ = 0;
  int64_t step_n_ = 0;
  bool step_open_ = false;
  std::vector<Slot> slots_;
};

}  // namespace actcomp::nn
