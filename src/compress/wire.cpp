#include "compress/wire.h"

#include "core/threadpool.h"
#include "tensor/kernels/kernel_table.h"

namespace actcomp::compress::wire {

namespace {
// Elements per parallel chunk for the index check and the scatter.
constexpr int64_t kEwGrain = int64_t{1} << 13;
}  // namespace

void append_fp16(std::vector<std::byte>& buf, const tensor::Tensor& t) {
  for (float v : t.data()) append_pod<uint16_t>(buf, tensor::fp32_to_fp16_bits(v));
}

std::vector<float> read_fp16(const std::vector<std::byte>& buf, size_t& off,
                             int64_t n) {
  std::vector<float> out(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    out[static_cast<size_t>(i)] =
        tensor::fp16_bits_to_fp32(read_pod<uint16_t>(buf, off));
  }
  return out;
}

tensor::Tensor decode_sparse(const std::vector<std::byte>& body,
                             const tensor::Shape& shape, int64_t k,
                             const char* codec) {
  const int64_t numel = shape.numel();
  // Exactly 6 bytes per kept element, compared by division so a forged
  // shape cannot overflow the product.
  ACTCOMP_CHECK(body.size() % 6 == 0 && body.size() / 6 == static_cast<size_t>(k),
                codec << " wire message has " << body.size()
                      << " body bytes, want 6 x " << k);
  const std::byte* idx_base = body.data();
  const std::byte* val_base = body.data() + static_cast<size_t>(k) * 4;
  const auto index = [idx_base](int64_t i) {
    int32_t j = 0;
    std::memcpy(&j, idx_base + i * 4, 4);
    return int64_t{j};
  };
  // Indices must be strictly ascending and in range, all checked before the
  // scatter writes anything: that makes its per-element writes disjoint, so
  // it parallelizes cleanly even on forged input.
  core::parallel_for(0, k, kEwGrain, [&](int64_t b, int64_t e) {
    int64_t prev = b == 0 ? -1 : index(b - 1);
    for (int64_t i = b; i < e; ++i) {
      const int64_t j = index(i);
      ACTCOMP_CHECK(j > prev, codec << " indices not strictly ascending on wire");
      prev = j;
    }
  });
  ACTCOMP_CHECK(k == 0 || index(k - 1) < numel,
                codec << " index out of range on wire");
  tensor::Tensor out{shape};
  auto d = out.data();
  // Values are batch-decoded through the SIMD fp16 kernel, then scattered.
  const tensor::kernels::KernelTable& kt = tensor::kernels::active_kernels();
  core::parallel_for(0, k, kEwGrain, [&](int64_t b, int64_t e) {
    const int64_t len = e - b;
    std::vector<uint16_t> half(static_cast<size_t>(len));
    std::vector<float> vals(static_cast<size_t>(len));
    std::memcpy(half.data(), val_base + b * 2, static_cast<size_t>(len) * 2);
    kt.fp16_decode(half.data(), vals.data(), len);
    for (int64_t i = b; i < e; ++i) {
      d[static_cast<size_t>(index(i))] = vals[static_cast<size_t>(i - b)];
    }
  });
  return out;
}

}  // namespace actcomp::compress::wire
