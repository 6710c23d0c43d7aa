// Shape: the dimension list of a Tensor.
//
// A thin value type over std::vector<int64_t> with the handful of queries the
// rest of the library needs (numel, rank, equality, pretty-printing) and
// validation that every extent is non-negative and numel fits in int64_t.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace actcomp::tensor {

class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<int64_t> dims);
  explicit Shape(std::vector<int64_t> dims);

  /// Number of dimensions (0 for a scalar shape).
  int rank() const { return static_cast<int>(dims_.size()); }

  /// Total number of elements (1 for a scalar shape).
  int64_t numel() const;

  /// Extent of dimension `i`; negative `i` counts from the back (-1 == last).
  int64_t dim(int i) const;
  int64_t operator[](int i) const { return dim(i); }

  const std::vector<int64_t>& dims() const { return dims_; }

  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  /// Row-major strides (in elements) for this shape.
  std::vector<int64_t> strides() const;

  /// "[2, 3, 4]"
  std::string str() const;

 private:
  void validate() const;

  std::vector<int64_t> dims_;
};

}  // namespace actcomp::tensor
