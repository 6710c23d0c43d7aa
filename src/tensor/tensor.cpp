#include "tensor/tensor.h"

#include <algorithm>

#include "tensor/check.h"

namespace actcomp::tensor {

Tensor::Tensor() : Tensor(Shape{0}) {}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      storage_(std::make_shared<std::vector<float>>(
          static_cast<size_t>(shape_.numel()), 0.0f)) {}

Tensor::Tensor(Shape shape, std::vector<float> values) : shape_(std::move(shape)) {
  ACTCOMP_CHECK(static_cast<int64_t>(values.size()) == shape_.numel(),
                "value count " << values.size() << " != numel of " << shape_.str());
  storage_ = std::make_shared<std::vector<float>>(std::move(values));
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::arange(int64_t n, float start, float step) {
  ACTCOMP_CHECK(n >= 0, "arange length must be non-negative, got " << n);
  Tensor t(Shape{n});
  auto d = t.data();
  for (int64_t i = 0; i < n; ++i) d[static_cast<size_t>(i)] = start + step * static_cast<float>(i);
  return t;
}

namespace {
int64_t flat_index(const Shape& shape, std::initializer_list<int64_t> idx) {
  ACTCOMP_CHECK(static_cast<int>(idx.size()) == shape.rank(),
                "index rank " << idx.size() << " != tensor rank " << shape.rank());
  const auto strides = shape.strides();
  int64_t flat = 0;
  int i = 0;
  for (int64_t v : idx) {
    ACTCOMP_CHECK(v >= 0 && v < shape.dim(i),
                  "index " << v << " out of range for dim " << i << " of " << shape.str());
    flat += v * strides[static_cast<size_t>(i)];
    ++i;
  }
  return flat;
}
}  // namespace

float& Tensor::at(std::initializer_list<int64_t> idx) {
  return (*storage_)[static_cast<size_t>(flat_index(shape_, idx))];
}

float Tensor::at(std::initializer_list<int64_t> idx) const {
  return (*storage_)[static_cast<size_t>(flat_index(shape_, idx))];
}

float Tensor::item() const {
  ACTCOMP_CHECK(numel() == 1, "item() on tensor of shape " << shape_.str());
  return (*storage_)[0];
}

Tensor Tensor::clone() const {
  Tensor t;
  t.shape_ = shape_;
  t.storage_ = std::make_shared<std::vector<float>>(*storage_);
  return t;
}

Tensor Tensor::reshape(Shape new_shape) const {
  ACTCOMP_CHECK(new_shape.numel() == numel(),
                "reshape " << shape_.str() << " -> " << new_shape.str()
                           << " changes element count");
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.storage_ = storage_;
  return t;
}

void Tensor::fill(float value) {
  std::fill(storage_->begin(), storage_->end(), value);
}

}  // namespace actcomp::tensor
