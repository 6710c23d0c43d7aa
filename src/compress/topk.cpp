#include "compress/topk.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>

#include "compress/wire.h"
#include "core/threadpool.h"
#include "tensor/check.h"
#include "tensor/fp16.h"
#include "tensor/kernels/kernel_table.h"

namespace actcomp::compress {

namespace {

// Fixed chunk width for the parallel candidate pass. A constant (never
// derived from the thread count) keeps the candidate layout — and therefore
// the selected set — identical for any ACTCOMP_THREADS.
constexpr int64_t kChunk = int64_t{1} << 16;

// Elements per parallel chunk for the gather/scatter loops.
constexpr int64_t kEwGrain = int64_t{1} << 13;

}  // namespace

TopKCompressor::TopKCompressor(double fraction) : fraction_(fraction) {
  ACTCOMP_CHECK(fraction > 0.0 && fraction <= 1.0,
                "top-k fraction must be in (0, 1], got " << fraction);
}

std::string TopKCompressor::name() const {
  std::ostringstream os;
  os << "topk(f=" << fraction_ << ')';
  return os.str();
}

int64_t TopKCompressor::k_for(int64_t numel) const {
  if (numel == 0) return 0;
  const auto k = static_cast<int64_t>(
      std::llround(fraction_ * static_cast<double>(numel)));
  return std::clamp<int64_t>(k, 1, numel);
}

std::vector<int64_t> TopKCompressor::select(const tensor::Tensor& x) const {
  const int64_t n = x.numel();
  const int64_t k = k_for(n);
  const auto d = x.data();
  // Magnitudes are precomputed by the SIMD abs kernel so the comparator is
  // a plain buffer read. ew_abs clears the sign bit exactly like fabs, so
  // the comparator sees the same floats — and picks the same set — as the
  // old on-the-fly version.
  std::vector<float> mag(static_cast<size_t>(n));
  {
    const tensor::kernels::KernelTable& kt = tensor::kernels::active_kernels();
    core::parallel_for(0, n, kEwGrain, [&](int64_t lo, int64_t hi) {
      kt.ew_abs(d.data(), mag.data(), lo, hi);
    });
  }
  // Strict total order: |magnitude| descending, index ascending as the
  // tie-break. Under a total order the top-k *set* is unique, which is what
  // makes the chunked pass below exact rather than approximate.
  const auto before = [&](int64_t a, int64_t b) {
    const float fa = mag[static_cast<size_t>(a)];
    const float fb = mag[static_cast<size_t>(b)];
    if (fa != fb) return fa > fb;
    return a < b;
  };

  if (n <= 2 * kChunk || k == n) {
    // Small inputs: the seed path. nth_element + sort of the head is
    // O(n + k log k), matching a device topk.
    std::vector<int64_t> idx(static_cast<size_t>(n));
    std::iota(idx.begin(), idx.end(), 0);
    std::nth_element(idx.begin(), idx.begin() + k, idx.end(), before);
    idx.resize(static_cast<size_t>(k));
    std::sort(idx.begin(), idx.end());  // ascending index order on the wire
    return idx;
  }

  // Parallel exact top-k: each fixed-width chunk reduces to its own top
  // min(k, chunk_len) candidates. Any member of the global top-k is by
  // definition among the top-k of its chunk, so the candidate union
  // provably contains the answer; a final nth_element over it reproduces
  // the seed's selection exactly.
  const int64_t nchunks = (n + kChunk - 1) / kChunk;
  std::vector<int64_t> counts(static_cast<size_t>(nchunks));
  std::vector<int64_t> offsets(static_cast<size_t>(nchunks) + 1, 0);
  for (int64_t c = 0; c < nchunks; ++c) {
    const int64_t len = std::min(kChunk, n - c * kChunk);
    counts[static_cast<size_t>(c)] = std::min(k, len);
    offsets[static_cast<size_t>(c) + 1] =
        offsets[static_cast<size_t>(c)] + counts[static_cast<size_t>(c)];
  }
  std::vector<int64_t> cand(static_cast<size_t>(offsets.back()));
  core::parallel_for(0, nchunks, 1, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      const int64_t b = c * kChunk;
      const int64_t len = std::min(kChunk, n - b);
      const int64_t kc = counts[static_cast<size_t>(c)];
      std::vector<int64_t> idx(static_cast<size_t>(len));
      std::iota(idx.begin(), idx.end(), b);
      if (kc < len) std::nth_element(idx.begin(), idx.begin() + kc, idx.end(), before);
      std::copy(idx.begin(), idx.begin() + kc,
                cand.begin() + offsets[static_cast<size_t>(c)]);
    }
  });
  std::nth_element(cand.begin(), cand.begin() + k, cand.end(), before);
  cand.resize(static_cast<size_t>(k));
  std::sort(cand.begin(), cand.end());
  return cand;
}

CompressedMessage TopKCompressor::do_encode(const tensor::Tensor& x) {
  const std::vector<int64_t> kept = select(x);
  const int64_t k = static_cast<int64_t>(kept.size());
  CompressedMessage msg;
  msg.shape_dims = x.shape().dims();
  msg.body.resize(static_cast<size_t>(k) * 6);
  const auto d = x.data();
  std::byte* idx_base = msg.body.data();
  std::byte* val_base = msg.body.data() + static_cast<size_t>(k) * 4;
  // Gather the kept values per chunk, then batch-convert through the SIMD
  // fp16 kernel (same bit converter, same wire bytes).
  const tensor::kernels::KernelTable& kt = tensor::kernels::active_kernels();
  core::parallel_for(0, k, kEwGrain, [&](int64_t b, int64_t e) {
    const int64_t len = e - b;
    std::vector<float> vals(static_cast<size_t>(len));
    std::vector<uint16_t> half(static_cast<size_t>(len));
    for (int64_t i = b; i < e; ++i) {
      const int32_t j = static_cast<int32_t>(kept[static_cast<size_t>(i)]);
      std::memcpy(idx_base + i * 4, &j, 4);
      vals[static_cast<size_t>(i - b)] =
          d[static_cast<size_t>(kept[static_cast<size_t>(i)])];
    }
    kt.fp16_encode(vals.data(), half.data(), len);
    std::memcpy(val_base + b * 2, half.data(), static_cast<size_t>(len) * 2);
  });
  return msg;
}

tensor::Tensor TopKCompressor::do_decode(const CompressedMessage& msg) const {
  tensor::Shape shape{msg.shape_dims};
  const int64_t numel = shape.numel();
  const int64_t k = k_for(numel);
  // Exactly 6 bytes per kept element (WIRE_FORMATS.md §3.3), compared by
  // division so a forged shape cannot overflow the product.
  ACTCOMP_CHECK(msg.body.size() % 6 == 0 &&
                    msg.body.size() / 6 == static_cast<size_t>(k),
                "top-k wire message has " << msg.body.size()
                                          << " body bytes, want 6 x " << k);
  const std::byte* idx_base = msg.body.data();
  const std::byte* val_base = msg.body.data() + static_cast<size_t>(k) * 4;
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
      ACTCOMP_CHECK(j > prev, "top-k indices not strictly ascending on wire");
      prev = j;
    }
  });
  ACTCOMP_CHECK(k == 0 || index(k - 1) < numel,
                "top-k index out of range on wire");
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

tensor::Tensor TopKCompressor::round_trip(const tensor::Tensor& x) {
  tensor::Tensor out{x.shape()};
  const auto din = x.data();
  auto dout = out.data();
  const std::vector<int64_t> kept = select(x);
  // fp16 on the wire, so round kept values through fp16 too (gather,
  // batch round-trip through the SIMD kernel, scatter back).
  const tensor::kernels::KernelTable& kt = tensor::kernels::active_kernels();
  core::parallel_for(
      0, static_cast<int64_t>(kept.size()), kEwGrain, [&](int64_t b, int64_t e) {
        const int64_t len = e - b;
        std::vector<float> vals(static_cast<size_t>(len));
        for (int64_t i = b; i < e; ++i) {
          vals[static_cast<size_t>(i - b)] =
              din[static_cast<size_t>(kept[static_cast<size_t>(i)])];
        }
        kt.fp16_round_trip(vals.data(), vals.data(), len);
        for (int64_t i = b; i < e; ++i) {
          dout[static_cast<size_t>(kept[static_cast<size_t>(i)])] =
              vals[static_cast<size_t>(i - b)];
        }
      });
  return out;
}

WireFormat TopKCompressor::wire_size(const tensor::Shape& shape) const {
  const int64_t k = k_for(shape.numel());
  return WireFormat{.payload_bytes = k * 2, .metadata_bytes = k * 4};
}

tensor::Tensor TopKCompressor::vjp(const tensor::Tensor& grad_out,
                                   const tensor::Tensor& input) const {
  tensor::Tensor g{grad_out.shape()};
  const auto dg = grad_out.data();
  auto dout = g.data();
  const std::vector<int64_t> kept = select(input);
  core::parallel_for(
      0, static_cast<int64_t>(kept.size()), kEwGrain, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) {
          const size_t j = static_cast<size_t>(kept[static_cast<size_t>(i)]);
          dout[j] = dg[j];
        }
      });
  return g;
}

}  // namespace actcomp::compress
