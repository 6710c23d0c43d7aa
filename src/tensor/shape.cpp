#include "tensor/shape.h"

#include <sstream>

#include "tensor/check.h"

namespace actcomp::tensor {

Shape::Shape(std::initializer_list<int64_t> dims) : dims_(dims) { validate(); }

Shape::Shape(std::vector<int64_t> dims) : dims_(std::move(dims)) { validate(); }

void Shape::validate() const {
  // Shapes also arrive from outside (wire messages, checkpoints), so the
  // running product numel() forms must not overflow.
  int64_t n = 1;
  for (int64_t d : dims_) {
    ACTCOMP_CHECK(d >= 0, "negative extent in shape " << str());
    ACTCOMP_CHECK(!__builtin_mul_overflow(n, d, &n),
                  "shape " << str() << " has more than 2^63 - 1 elements");
  }
}

int64_t Shape::numel() const {
  int64_t n = 1;
  for (int64_t d : dims_) n *= d;
  return n;
}

int64_t Shape::dim(int i) const {
  const int r = rank();
  if (i < 0) i += r;
  ACTCOMP_CHECK(i >= 0 && i < r, "dim index " << i << " out of range for rank " << r);
  return dims_[static_cast<size_t>(i)];
}

std::vector<int64_t> Shape::strides() const {
  std::vector<int64_t> s(dims_.size(), 1);
  for (int i = rank() - 2; i >= 0; --i) {
    s[static_cast<size_t>(i)] =
        s[static_cast<size_t>(i) + 1] * dims_[static_cast<size_t>(i) + 1];
  }
  return s;
}

std::string Shape::str() const {
  std::ostringstream os;
  os << '[';
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (i) os << ", ";
    os << dims_[i];
  }
  os << ']';
  return os.str();
}

}  // namespace actcomp::tensor
