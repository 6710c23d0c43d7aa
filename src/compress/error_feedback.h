// Error-feedback wrapper (paper §3.3).
//
// Classic EF-SGD style residual correction: the compressor transmits
// C(x + e) and locally retains e' = (x + e) − C(x + e) to be added to the
// next message. The paper's implementation "allows the integration of
// error-feedback compression algorithms by retaining the error information
// from the previous compression step" — this wrapper adds that capability to
// any inner Compressor.
//
// One wrapper instance corresponds to one communication point (one layer's
// activation stream); the residual is reset whenever the input shape changes
// (e.g. last partial batch).
#pragma once

#include "compress/compressor.h"

namespace actcomp::compress {

class ErrorFeedbackCompressor final : public Compressor {
 public:
  explicit ErrorFeedbackCompressor(CompressorPtr inner);

  std::string name() const override;
  CompressedMessage do_encode(const tensor::Tensor& x) override;
  tensor::Tensor do_decode(const CompressedMessage& msg) const override;
  tensor::Tensor round_trip(const tensor::Tensor& x) override;
  autograd::Variable apply(const autograd::Variable& x) override;
  WireFormat wire_size(const tensor::Shape& shape) const override;
  bool allreduce_compatible() const override;
  std::vector<autograd::Variable> parameters() override;

  const tensor::Tensor& residual() const { return residual_; }

 private:
  /// x + residual (allocating the residual lazily / on shape change).
  tensor::Tensor shifted(const tensor::Tensor& x);
  void update_residual(const tensor::Tensor& shifted_in,
                       const tensor::Tensor& reconstructed);

  CompressorPtr inner_;
  tensor::Tensor residual_;
  bool has_residual_ = false;
};

}  // namespace actcomp::compress
