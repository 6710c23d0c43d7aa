#include "compress/error_feedback.h"

#include "autograd/functions.h"
#include "tensor/check.h"
#include "tensor/ops.h"

namespace actcomp::compress {

ErrorFeedbackCompressor::ErrorFeedbackCompressor(CompressorPtr inner)
    : inner_(std::move(inner)) {
  ACTCOMP_CHECK(inner_ != nullptr, "error feedback needs an inner compressor");
}

std::string ErrorFeedbackCompressor::name() const {
  return "ef(" + inner_->name() + ")";
}

tensor::Tensor ErrorFeedbackCompressor::shifted(const tensor::Tensor& x) {
  if (!has_residual_ || residual_.shape() != x.shape()) return x.clone();
  return tensor::add(x, residual_);
}

void ErrorFeedbackCompressor::update_residual(const tensor::Tensor& shifted_in,
                                              const tensor::Tensor& reconstructed) {
  residual_ = tensor::sub(shifted_in, reconstructed);
  has_residual_ = true;
}

CompressedMessage ErrorFeedbackCompressor::do_encode(const tensor::Tensor& x) {
  const tensor::Tensor s = shifted(x);
  CompressedMessage msg = inner_->encode(s);
  update_residual(s, inner_->decode(msg));
  return msg;
}

tensor::Tensor ErrorFeedbackCompressor::do_decode(const CompressedMessage& msg) const {
  return inner_->decode(msg);
}

tensor::Tensor ErrorFeedbackCompressor::round_trip(const tensor::Tensor& x) {
  const tensor::Tensor s = shifted(x);
  tensor::Tensor out = inner_->round_trip(s);
  update_residual(s, out);
  return out;
}

autograd::Variable ErrorFeedbackCompressor::apply(const autograd::Variable& x) {
  // The residual is a constant w.r.t. the current step's parameters; attach
  // it as a non-grad leaf, run the inner differentiable op on the sum, and
  // refresh the residual from the realized values.
  const bool use_residual = has_residual_ && residual_.shape() == x.value().shape();
  autograd::Variable shifted_var =
      use_residual ? autograd::add(x, autograd::Variable::leaf(residual_)) : x;
  autograd::Variable out = inner_->apply(shifted_var);
  update_residual(shifted_var.value(), out.value());
  return out;
}

WireFormat ErrorFeedbackCompressor::wire_size(const tensor::Shape& shape) const {
  return inner_->wire_size(shape);
}

bool ErrorFeedbackCompressor::allreduce_compatible() const {
  return inner_->allreduce_compatible();
}

std::vector<autograd::Variable> ErrorFeedbackCompressor::parameters() {
  return inner_->parameters();
}

}  // namespace actcomp::compress
