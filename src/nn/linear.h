// Linear (dense) layer: y = act(x W + b). Every layer of the model carries
// a bias, so the bias add always runs through bias_act.
#pragma once

#include "autograd/functions.h"
#include "nn/module.h"
#include "tensor/random.h"

namespace actcomp::nn {

class Linear final : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, tensor::Generator& gen);

  /// x: [..., in_features] -> [..., out_features]. When `act` is not kNone
  /// the activation fuses with the bias into one tape node (bias_act).
  autograd::Variable forward(const autograd::Variable& x,
                             autograd::Act act = autograd::Act::kNone) const;

  std::vector<NamedParam> named_parameters() const override;

 private:
  int64_t in_;
  autograd::Variable weight_;  // [in, out]
  autograd::Variable bias_;    // [out]
};

}  // namespace actcomp::nn
