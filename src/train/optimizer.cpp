#include "train/optimizer.h"

#include <cmath>

#include "core/threadpool.h"
#include "tensor/check.h"
#include "tensor/kernels/kernel_table.h"

namespace actcomp::train {

namespace {

// Elements per parallel_for chunk for the optimizer's elementwise passes.
// Every element's arithmetic is independent of its chunk, so bytes do not
// depend on the lane count.
constexpr int64_t kOptimizerGrain = 1 << 14;

}  // namespace

Adam::Adam(const std::vector<autograd::Variable>& params, float lr, float beta1,
           float beta2, float eps, float weight_decay)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps), weight_decay_(weight_decay) {
  add_parameters(params);
}

void Adam::zero_grad() {
  for (auto& p : params_) p.zero_grad();
}

void Adam::add_parameters(const std::vector<autograd::Variable>& params) {
  for (const auto& p : params) {
    ACTCOMP_CHECK(p.defined() && p.requires_grad(),
                  "optimizer parameter must be a trainable leaf");
    params_.push_back(p);
  }
}

float Adam::clip_grad_norm(float max_norm) {
  ACTCOMP_CHECK(max_norm > 0.0f, "max_norm must be positive");
  double total = 0.0;
  for (const auto& p : params_) {
    if (!p.has_grad()) continue;
    for (float g : p.grad().data()) total += static_cast<double>(g) * g;
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm) {
    const float scale = max_norm / (norm + 1e-12f);
    const auto ew_scale = tensor::kernels::active_kernels().ew_scale;
    for (auto& p : params_) {
      if (!p.has_grad()) continue;
      // grad() is const; scale through the node.
      float* g = p.node()->grad.data().data();
      core::parallel_for(0, p.grad().numel(), kOptimizerGrain,
                         [&](int64_t lo, int64_t hi) {
                           ew_scale(g, scale, lo, hi);
                         });
    }
  }
  return norm;
}

void Adam::step() {
  if (m_.size() != params_.size()) {
    m_.resize(params_.size());
    v_.resize(params_.size());
  }
  ++t_;
  const tensor::kernels::AdamStep s{
      lr_, beta1_, beta2_, eps_, weight_decay_,
      1.0f - std::pow(beta1_, static_cast<float>(t_)),
      1.0f - std::pow(beta2_, static_cast<float>(t_))};
  const auto adam_update = tensor::kernels::active_kernels().adam_update;
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    if (!p.has_grad()) continue;
    if (m_[i].numel() != p.value().numel()) {
      m_[i] = tensor::Tensor::zeros(p.value().shape());
      v_[i] = tensor::Tensor::zeros(p.value().shape());
    }
    float* w = p.mutable_value().data().data();
    const float* g = p.grad().data().data();
    float* m = m_[i].data().data();
    float* v = v_[i].data().data();
    core::parallel_for(0, m_[i].numel(), kOptimizerGrain,
                       [&](int64_t lo, int64_t hi) {
                         adam_update(w, g, m, v, lo, hi, s);
                       });
  }
}

void Adam::restore_state(int64_t step_count, std::vector<tensor::Tensor> m,
                         std::vector<tensor::Tensor> v) {
  ACTCOMP_CHECK(step_count >= 0, "Adam step count must be >= 0, got " << step_count);
  ACTCOMP_CHECK(m.size() == params_.size() && v.size() == params_.size(),
                "Adam moment count " << m.size() << "/" << v.size()
                                     << " != parameter count " << params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    const int64_t n = params_[i].value().numel();
    ACTCOMP_CHECK(m[i].numel() == 0 || m[i].numel() == n,
                  "Adam first moment " << i << " has " << m[i].numel()
                                       << " elements, parameter has " << n);
    ACTCOMP_CHECK(v[i].numel() == 0 || v[i].numel() == n,
                  "Adam second moment " << i << " has " << v[i].numel()
                                        << " elements, parameter has " << n);
  }
  t_ = step_count;
  m_ = std::move(m);
  v_ = std::move(v);
}

LinearWarmupSchedule::LinearWarmupSchedule(float peak_lr, int64_t warmup_steps,
                                           int64_t total_steps)
    : peak_lr_(peak_lr), warmup_steps_(warmup_steps), total_steps_(total_steps) {
  ACTCOMP_CHECK(total_steps > 0 && warmup_steps >= 0 && warmup_steps <= total_steps,
                "bad schedule: warmup " << warmup_steps << " of " << total_steps);
}

float LinearWarmupSchedule::lr_at(int64_t step) const {
  if (step < warmup_steps_) {
    return peak_lr_ * static_cast<float>(step + 1) /
           static_cast<float>(warmup_steps_);
  }
  if (step >= total_steps_) return 0.0f;
  const float frac = static_cast<float>(total_steps_ - step) /
                     static_cast<float>(total_steps_ - warmup_steps_);
  return peak_lr_ * frac;
}

}  // namespace actcomp::train
