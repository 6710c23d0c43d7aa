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
    ts::Tensor kt{ts::Shape{batch_, hidden_, new_cap}};
    ts::Tensor v{ts::Shape{batch_, new_cap, hidden_}};
    if (len_ > 0) {
      const float* okt = slot.kt.data().data();
      const float* ov = slot.v.data().data();
      float* nkt = kt.data().data();
      float* nv = v.data().data();
      for (int64_t row = 0; row < batch_ * hidden_; ++row) {
        std::copy_n(okt + row * cap_, len_, nkt + row * new_cap);
      }
      for (int64_t b = 0; b < batch_; ++b) {
        std::copy_n(ov + b * cap_ * hidden_, len_ * hidden_,
                    nv + b * new_cap * hidden_);
      }
    }
    slot.kt = std::move(kt);
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
  const float* sk = k.data().data();
  const float* sv = v.data().data();
  float* dkt = slot.kt.data().data();
  float* dv = slot.v.data().data();
  // Keys land as n new columns of each sequence's [hidden, cap] block.
  for (int64_t b = 0; b < batch_; ++b) {
    for (int64_t p = 0; p < step_n_; ++p) {
      const float* row = sk + (b * step_n_ + p) * hidden_;
      float* col = dkt + b * hidden_ * cap_ + len_ + p;
      for (int64_t c = 0; c < hidden_; ++c) col[c * cap_] = row[c];
    }
    std::copy_n(sv + b * step_n_ * hidden_, step_n_ * hidden_,
                dv + (b * cap_ + len_) * hidden_);
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

void KvCache::abort_step() {
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

KvCache::Storage KvCache::storage(int64_t layer, int64_t total) const {
  const Slot& slot = readable(layer, total);
  return {slot.kt, slot.v};
}

tensor::Tensor KvCache::keys(int64_t layer, int64_t total) const {
  const float* src = readable(layer, total).kt.data().data();
  ts::Tensor out{ts::Shape{batch_, total, hidden_}};
  float* dst = out.data().data();
  for (int64_t b = 0; b < batch_; ++b) {
    for (int64_t p = 0; p < total; ++p) {
      for (int64_t c = 0; c < hidden_; ++c) {
        dst[(b * total + p) * hidden_ + c] = src[(b * hidden_ + c) * cap_ + p];
      }
    }
  }
  return out;
}

tensor::Tensor KvCache::values(int64_t layer, int64_t total) const {
  const float* src = readable(layer, total).v.data().data();
  ts::Tensor out{ts::Shape{batch_, total, hidden_}};
  for (int64_t b = 0; b < batch_; ++b) {
    std::copy_n(src + b * cap_ * hidden_, total * hidden_,
                out.data().data() + b * total * hidden_);
  }
  return out;
}

}  // namespace actcomp::nn
