// The optimizer over autograd parameters: Adam/AdamW, the one every
// fine-tuning and pre-training loop, bench and perfbench workload builds,
// and the LR schedule that drives it.
#pragma once

#include <vector>

#include "autograd/variable.h"

namespace actcomp::train {

/// Adam / AdamW (decoupled weight decay, as used for BERT).
class Adam {
 public:
  /// Every parameter must be a trainable leaf (std::invalid_argument).
  Adam(const std::vector<autograd::Variable>& params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f);

  /// Apply one update from the accumulated gradients (parameters without a
  /// gradient this step are skipped).
  void step();

  void zero_grad();

  /// Append more parameters (e.g. AE codec weights) after construction.
  void add_parameters(const std::vector<autograd::Variable>& params);

  /// Scale all gradients so the global L2 norm is at most `max_norm`;
  /// returns the pre-clip norm.
  float clip_grad_norm(float max_norm);

  float lr() const { return lr_; }
  void set_lr(float lr) { lr_ = lr; }
  size_t num_parameters() const { return params_.size(); }

  // ---- checkpoint surface (train/checkpoint.h) ----
  /// Number of step() calls applied (the bias-correction exponent).
  int64_t step_count() const { return t_; }
  /// First/second moment per parameter, aligned with the construction +
  /// add_parameters() order. Lazily sized: a parameter that has never
  /// received a gradient has an empty (0-element) moment tensor.
  const std::vector<tensor::Tensor>& exp_avg() const { return m_; }
  const std::vector<tensor::Tensor>& exp_avg_sq() const { return v_; }
  /// Restore the full optimizer state. `m` and `v` must have exactly one
  /// entry per current parameter, each either empty (never stepped) or
  /// matching the parameter's element count; throws std::invalid_argument
  /// naming the offending index otherwise.
  void restore_state(int64_t step_count, std::vector<tensor::Tensor> m,
                     std::vector<tensor::Tensor> v);

 private:
  std::vector<autograd::Variable> params_;
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  float weight_decay_;
  int64_t t_ = 0;
  std::vector<tensor::Tensor> m_;
  std::vector<tensor::Tensor> v_;
};

/// Linear warmup to `peak_lr` over `warmup_steps`, then linear decay to zero
/// at `total_steps` (the BERT fine-tuning schedule).
class LinearWarmupSchedule {
 public:
  LinearWarmupSchedule(float peak_lr, int64_t warmup_steps, int64_t total_steps);
  float lr_at(int64_t step) const;

 private:
  float peak_lr_;
  int64_t warmup_steps_;
  int64_t total_steps_;
};

}  // namespace actcomp::train
