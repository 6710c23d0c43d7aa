// Top-K sparsification (paper §3.1, settings T1–T4).
//
// Keeps the `fraction`·numel elements of largest magnitude per tensor (the
// paper uses torch.topk over the whole activation) and transmits
// (value: fp16, index: int32) pairs. The backward pass is the kept-element
// mask: y = m ⊙ x  ⇒  ∂y/∂x = m.
#pragma once

#include <cstdint>

#include "compress/compressor.h"

namespace actcomp::compress {

class TopKCompressor final : public Compressor {
 public:
  /// `fraction` of elements kept, in (0, 1].
  explicit TopKCompressor(double fraction);

  std::string name() const override;
  CompressedMessage do_encode(const tensor::Tensor& x) override;
  tensor::Tensor do_decode(const CompressedMessage& msg) const override;
  tensor::Tensor round_trip(const tensor::Tensor& x) override;
  /// Masks the backward with the forward's own selection (no second select).
  autograd::Variable apply(const autograd::Variable& x) override;
  WireFormat wire_size(const tensor::Shape& shape) const override;
  bool allreduce_compatible() const override { return false; }

  double fraction() const { return fraction_; }
  /// Number of elements kept for a tensor with `numel` elements (>= 1).
  int64_t k_for(int64_t numel) const;

 private:
  /// Indices of the k largest-|x| elements (ties broken by lower index).
  std::vector<int64_t> select(const tensor::Tensor& x) const;
  /// x's kept elements, fp16-rounded, in an otherwise zero tensor.
  static tensor::Tensor keep_values(const tensor::Tensor& x,
                                    const std::vector<int64_t>& kept);

  double fraction_;
};

}  // namespace actcomp::compress
