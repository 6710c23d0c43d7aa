// Tensor (de)serialization for checkpointing.
//
// A checkpoint is a named map of tensors in a simple tagged binary format.
// Takeaway 5 in the paper relies on checkpoint surgery: pre-train with AE
// codecs attached, then load only the BERT weights for fine-tuning (dropping
// the AE parameters). Writing and reading partial name sets makes that a
// one-liner.
#pragma once

#include <iosfwd>
#include <map>
#include <string>

#include "tensor/tensor.h"

namespace actcomp::tensor {

using TensorMap = std::map<std::string, Tensor>;

void write_tensor(std::ostream& os, const Tensor& t);
Tensor read_tensor(std::istream& is);

void write_tensor_map(std::ostream& os, const TensorMap& m);
TensorMap read_tensor_map(std::istream& is);

}  // namespace actcomp::tensor
