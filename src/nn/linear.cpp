#include "nn/linear.h"

#include "autograd/functions.h"
#include "tensor/check.h"

namespace actcomp::nn {

Linear::Linear(int64_t in_features, int64_t out_features, tensor::Generator& gen)
    : in_(in_features) {
  ACTCOMP_CHECK(in_features > 0 && out_features > 0,
                "linear dims must be positive: " << in_features << " x "
                                                 << out_features);
  weight_ = autograd::Variable::leaf(
      tensor::xavier_uniform(gen, tensor::Shape{in_features, out_features},
                             in_features, out_features),
      /*requires_grad=*/true);
  bias_ = autograd::Variable::leaf(tensor::Tensor::zeros(tensor::Shape{out_features}),
                                   /*requires_grad=*/true);
}

autograd::Variable Linear::forward(const autograd::Variable& x,
                                   autograd::Act act) const {
  ACTCOMP_CHECK(x.value().dim(-1) == in_,
                "linear expects last dim " << in_ << ", got "
                                           << x.value().shape().str());
  return autograd::bias_act(autograd::matmul(x, weight_), bias_, act);
}

std::vector<NamedParam> Linear::named_parameters() const {
  return {{"weight", weight_}, {"bias", bias_}};
}

}  // namespace actcomp::nn
