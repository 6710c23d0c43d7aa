// Byte-level helpers shared by the wire formats.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "tensor/check.h"
#include "tensor/fp16.h"
#include "tensor/tensor.h"

namespace actcomp::compress::wire {

template <typename T>
void append_pod(std::vector<std::byte>& buf, T v) {
  const size_t off = buf.size();
  buf.resize(off + sizeof(T));
  std::memcpy(buf.data() + off, &v, sizeof(T));
}

template <typename T>
T read_pod(const std::vector<std::byte>& buf, size_t& off) {
  ACTCOMP_CHECK(off + sizeof(T) <= buf.size(), "truncated wire message");
  T v{};
  std::memcpy(&v, buf.data() + off, sizeof(T));
  off += sizeof(T);
  return v;
}

/// Append every element of `t` as IEEE fp16.
void append_fp16(std::vector<std::byte>& buf, const tensor::Tensor& t);

/// Read `n` fp16 values starting at `off` into fp32. Throws
/// std::invalid_argument, before allocating, unless 2·n bytes remain.
std::vector<float> read_fp16(const std::vector<std::byte>& buf, size_t& off,
                             int64_t n);

/// Decode a sparse index+value body (WIRE_FORMATS.md §3.3, Top-K and
/// Random-K) into a dense tensor of `shape`. The body must be exactly 6·k
/// bytes and its indices strictly ascending in [0, numel); both are checked
/// before the output is allocated, and any violation throws
/// std::invalid_argument with `codec` in the message.
tensor::Tensor decode_sparse(const std::vector<std::byte>& body,
                             const tensor::Shape& shape, int64_t k,
                             const char* codec);

}  // namespace actcomp::compress::wire
