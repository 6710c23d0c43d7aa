// KvCache: per-layer key/value storage for autoregressive decoding.
//
// The cache holds, for every encoder layer, the projected keys and values of
// every committed position, sharing one position counter. Keys are stored
// transposed, [batch, hidden, capacity]: rows h*dh .. (h+1)*dh - 1 of a
// sequence's block are head h's Kᵀ with row stride capacity, the operand
// cached attention's score GEMM reads in place. Values are stored as
// [batch, capacity, hidden], so head h's V is a column block with row
// stride hidden. Attention reads both where they lie: no per-head copy is
// made, and a step writes only its n new columns and rows. A decode step is
// a transaction: begin_step(n) reserves n positions (growing storage if
// needed), each layer append()s its k/v rows as its attention runs, and
// commit() advances the shared length, or abort_step() drops the step.
// BertModel::forward_cached aborts its step when anything between
// begin_step and commit throws, so the cache keeps its committed prefix
// with no step open, and the step can simply be retried. The committed
// length only grows: a new sequence takes a new cache.
//
// Contract pinned by tests/kv_cache_test.cpp: decoding token-by-token through
// the cache reproduces the full-sequence causal forward byte-for-byte at
// every prefix length and at any thread count. This works because every
// kernel on the path accumulates per output element as a left fold in
// ascending reduction order regardless of tensor shape (the GEMM with one
// fused multiply-add per step, everything else mul-then-add), and the
// causal mask uses -inf (exp(-inf) == 0.0 exactly), so a query's softmax
// row and context sum are unchanged by the trailing positions it cannot
// see.
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

  /// Opens a step of `n` new positions, growing storage if len()+n exceeds
  /// capacity (growth preserves all committed rows).
  void begin_step(int64_t n);
  /// Stores `k`/`v` ([batch, n, hidden]) for `layer` at positions
  /// [len(), len()+n). Each layer appends exactly once per step.
  void append(int64_t layer, const tensor::Tensor& k, const tensor::Tensor& v);
  /// Commits the open step: every layer must have appended.
  void commit();
  /// Drops the open step, if any: the committed prefix stays, and the rows
  /// the step appended are left to the next step to overwrite.
  void abort_step();

  /// Layer `layer`'s storage, which cached attention reads in place, after
  /// checking that its first `total` positions are cached: `keys_t` is
  /// [batch, hidden, capacity()] and `values` [batch, capacity(), hidden].
  /// Positions at or past `total` are unspecified. Within an open step,
  /// positions the layer just appended are visible. The handles share the
  /// cache's storage; a later grow() leaves theirs intact.
  struct Storage {
    tensor::Tensor keys_t;
    tensor::Tensor values;
  };
  Storage storage(int64_t layer, int64_t total) const;

  /// Copies of the first `total` cached key/value rows of `layer` as
  /// [batch, total, hidden], with storage()'s visibility.
  tensor::Tensor keys(int64_t layer, int64_t total) const;
  tensor::Tensor values(int64_t layer, int64_t total) const;

 private:
  struct Slot {
    tensor::Tensor kt;  // [batch, hidden, cap]
    tensor::Tensor v;   // [batch, cap, hidden]
    bool appended = false;  ///< this layer's rows for the open step
  };

  void grow(int64_t needed);
  /// The slot of `layer`, after checking that its first `total` rows are
  /// cached.
  const Slot& readable(int64_t layer, int64_t total) const;

  int64_t batch_;
  int64_t hidden_;
  int64_t len_ = 0;
  int64_t cap_ = 0;
  int64_t step_n_ = 0;
  bool step_open_ = false;
  std::vector<Slot> slots_;
};

}  // namespace actcomp::nn
