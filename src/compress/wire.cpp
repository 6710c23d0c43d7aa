#include "compress/wire.h"

#include "core/threadpool.h"
#include "tensor/kernels/kernel_table.h"

namespace actcomp::compress::wire {

namespace {
// Elements per parallel chunk for the fp16 streams, the index check and the
// scatter.
constexpr int64_t kEwGrain = int64_t{1} << 13;
}  // namespace

void append_fp16(std::vector<std::byte>& buf, const tensor::Tensor& t) {
  const int64_t n = t.numel();
  const size_t base = buf.size();
  buf.resize(base + static_cast<size_t>(n) * 2);
  const float* src = t.data().data();
  std::byte* dst = buf.data() + base;
  const tensor::kernels::KernelTable& kt = tensor::kernels::active_kernels();
  core::parallel_for(0, n, kEwGrain, [&](int64_t b, int64_t e) {
    uint16_t half[kEwGrain] = {};
    kt.fp16_encode(src + b, half, e - b);
    std::memcpy(dst + b * 2, half, static_cast<size_t>(e - b) * 2);
  });
}

std::vector<float> read_fp16(const std::vector<std::byte>& buf, size_t& off,
                             int64_t n) {
  ACTCOMP_CHECK(n >= 0 && off <= buf.size() &&
                    (buf.size() - off) / 2 >= static_cast<uint64_t>(n),
                "truncated wire message");
  std::vector<float> out(static_cast<size_t>(n));
  const std::byte* src = buf.data() + off;
  const tensor::kernels::KernelTable& kt = tensor::kernels::active_kernels();
  core::parallel_for(0, n, kEwGrain, [&](int64_t b, int64_t e) {
    uint16_t half[kEwGrain] = {};
    std::memcpy(half, src + b * 2, static_cast<size_t>(e - b) * 2);
    kt.fp16_decode(half, out.data() + b, e - b);
  });
  off += static_cast<size_t>(n) * 2;
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
