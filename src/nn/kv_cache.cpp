#include "nn/kv_cache.h"

#include <algorithm>

#include "tensor/check.h"

namespace actcomp::nn {

namespace ts = actcomp::tensor;

KvCache::KvCache(int64_t num_layers, int64_t batch, int64_t hidden,
                 int64_t capacity)
    : batch_(batch), hidden_(hidden) {
  ACTCOMP_CHECK(num_layers > 0, "KvCache needs num_layers >= 1, got " << num_layers);
  ACTCOMP_CHECK(batch > 0, "KvCache needs batch >= 1, got " << batch);
  ACTCOMP_CHECK(hidden > 0, "KvCache needs hidden >= 1, got " << hidden);
  ACTCOMP_CHECK(capacity >= 0, "KvCache capacity must be >= 0, got " << capacity);
  slots_.resize(static_cast<size_t>(num_layers));
  if (capacity > 0) grow(capacity);
}

void KvCache::grow(int64_t needed) {
  if (needed <= cap_) return;
  int64_t new_cap = std::max<int64_t>(cap_ * 2, 16);
  new_cap = std::max(new_cap, needed);
  for (auto& slot : slots_) {
    ts::Tensor k{ts::Shape{batch_, new_cap, hidden_}};
    ts::Tensor v{ts::Shape{batch_, new_cap, hidden_}};
    if (len_ > 0) {
      const auto ok = slot.k.data();
      const auto ov = slot.v.data();
      auto nk = k.data();
      auto nv = v.data();
      for (int64_t b = 0; b < batch_; ++b) {
        const size_t src = static_cast<size_t>(b * cap_ * hidden_);
        const size_t dst = static_cast<size_t>(b * new_cap * hidden_);
        const size_t rows = static_cast<size_t>(len_ * hidden_);
        std::copy_n(ok.data() + src, rows, nk.data() + dst);
        std::copy_n(ov.data() + src, rows, nv.data() + dst);
      }
    }
    slot.k = std::move(k);
    slot.v = std::move(v);
  }
  cap_ = new_cap;
}

void KvCache::begin_step(int64_t n) {
  ACTCOMP_CHECK(n >= 1, "KvCache::begin_step needs n >= 1, got " << n);
  ACTCOMP_CHECK(!step_open_, "KvCache::begin_step: a step of " << step_n_
                             << " positions is already open (commit it first)");
  grow(len_ + n);
  step_n_ = n;
  step_open_ = true;
  for (auto& slot : slots_) slot.appended = false;
}

void KvCache::append(int64_t layer, const tensor::Tensor& k,
                     const tensor::Tensor& v) {
  ACTCOMP_CHECK(step_open_, "KvCache::append outside begin_step/commit");
  ACTCOMP_CHECK(layer >= 0 && layer < num_layers(),
                "KvCache::append: layer " << layer << " out of range [0, "
                                          << num_layers() << ")");
  auto& slot = slots_[static_cast<size_t>(layer)];
  ACTCOMP_CHECK(!slot.appended,
                "KvCache::append: layer " << layer << " already appended this step");
  const ts::Shape want{batch_, step_n_, hidden_};
  ACTCOMP_CHECK(k.shape() == want && v.shape() == want,
                "KvCache::append: expected k/v " << want.str() << ", got k "
                                                 << k.shape().str() << ", v "
                                                 << v.shape().str());
  const auto sk = k.data();
  const auto sv = v.data();
  auto dk = slot.k.data();
  auto dv = slot.v.data();
  for (int64_t b = 0; b < batch_; ++b) {
    const size_t src = static_cast<size_t>(b * step_n_ * hidden_);
    const size_t dst = static_cast<size_t>((b * cap_ + len_) * hidden_);
    const size_t rows = static_cast<size_t>(step_n_ * hidden_);
    std::copy_n(sk.data() + src, rows, dk.data() + dst);
    std::copy_n(sv.data() + src, rows, dv.data() + dst);
  }
  slot.appended = true;
}

void KvCache::commit() {
  ACTCOMP_CHECK(step_open_, "KvCache::commit without an open step");
  for (int64_t l = 0; l < num_layers(); ++l) {
    ACTCOMP_CHECK(slots_[static_cast<size_t>(l)].appended,
                  "KvCache::commit: layer " << l << " never appended this step");
  }
  len_ += step_n_;
  step_n_ = 0;
  step_open_ = false;
}

const KvCache::Slot& KvCache::readable(int64_t layer, int64_t total) const {
  ACTCOMP_CHECK(layer >= 0 && layer < num_layers(),
                "KvCache: layer " << layer << " out of range [0, " << num_layers()
                                  << ")");
  const Slot& slot = slots_[static_cast<size_t>(layer)];
  const int64_t visible = len_ + (step_open_ && slot.appended ? step_n_ : 0);
  ACTCOMP_CHECK(total >= 0 && total <= visible,
                "KvCache: requested " << total << " positions of layer " << layer
                                      << ", only " << visible << " are cached");
  return slot;
}

tensor::Tensor KvCache::gather(const tensor::Tensor& store, int64_t total) const {
  ts::Tensor out{ts::Shape{batch_, total, hidden_}};
  const auto src = store.data();
  auto dst = out.data();
  for (int64_t b = 0; b < batch_; ++b) {
    std::copy_n(src.data() + static_cast<size_t>(b * cap_ * hidden_),
                static_cast<size_t>(total * hidden_),
                dst.data() + static_cast<size_t>(b * total * hidden_));
  }
  return out;
}

tensor::Tensor KvCache::keys(int64_t layer, int64_t total) const {
  return gather(readable(layer, total).k, total);
}

tensor::Tensor KvCache::values(int64_t layer, int64_t total) const {
  return gather(readable(layer, total).v, total);
}

int64_t KvCache::head_dim(int64_t heads) const {
  ACTCOMP_CHECK(heads > 0 && hidden_ % heads == 0,
                "KvCache: hidden " << hidden_ << " does not split into " << heads
                                   << " heads");
  return hidden_ / heads;
}

tensor::Tensor KvCache::keys_t_by_head(int64_t layer, int64_t total,
                                       int64_t heads) const {
  const float* src = readable(layer, total).k.data().data();
  const int64_t dh = head_dim(heads);
  ts::Tensor out{ts::Shape{batch_ * heads, dh, total}};
  float* dst = out.data().data();
  // Row h*dh + d of a sequence's [hidden, total] transpose is head h's row
  // d, so each sequence transposes as one block.
  for (int64_t b = 0; b < batch_; ++b) {
    float* block = dst + b * hidden_ * total;
    for (int64_t p = 0; p < total; ++p) {
      const float* row = src + (b * cap_ + p) * hidden_;
      for (int64_t c = 0; c < hidden_; ++c) block[c * total + p] = row[c];
    }
  }
  return out;
}

tensor::Tensor KvCache::values_by_head(int64_t layer, int64_t total,
                                       int64_t heads) const {
  const float* src = readable(layer, total).v.data().data();
  const int64_t dh = head_dim(heads);
  ts::Tensor out{ts::Shape{batch_ * heads, total, dh}};
  float* dst = out.data().data();
  for (int64_t b = 0; b < batch_; ++b) {
    for (int64_t h = 0; h < heads; ++h) {
      for (int64_t p = 0; p < total; ++p) {
        std::copy_n(src + (b * cap_ + p) * hidden_ + h * dh, dh, dst);
        dst += dh;
      }
    }
  }
  return out;
}

}  // namespace actcomp::nn
