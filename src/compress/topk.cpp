#include "compress/topk.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <sstream>
#include <utility>

#include "compress/settings.h"
#include "compress/wire.h"
#include "core/threadpool.h"
#include "tensor/check.h"
#include "tensor/fp16.h"
#include "tensor/kernels/kernel_table.h"

namespace actcomp::compress {

namespace {

// Elements per parallel chunk for the selection passes. A constant (never
// derived from the thread count): every pass reduces to integer counts per
// chunk, so the selected set is identical for any ACTCOMP_THREADS.
constexpr int64_t kSelectGrain = int64_t{1} << 15;

// Elements per parallel chunk for the gather/scatter loops.
constexpr int64_t kEwGrain = int64_t{1} << 13;

/// The selection key of x: the bit pattern of |x|. For non-NaN floats the
/// unsigned key order is the magnitude order (±0 tie, subnormals and ±Inf
/// included); every NaN sorts above +Inf.
inline uint32_t magnitude_key(float v) {
  uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits & 0x7FFFFFFFu;
}

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
  return kept_count(fraction_, numel);
}

std::vector<int64_t> TopKCompressor::select(const tensor::Tensor& x) const {
  const int64_t n = x.numel();
  const int64_t k = k_for(n);
  if (k == 0) return {};
  const float* d = x.data().data();
  const auto nchunks =
      static_cast<size_t>((n + kSelectGrain - 1) / kSelectGrain);
  const auto chunk_of = [](int64_t lo) {
    return static_cast<size_t>(lo / kSelectGrain);
  };

  // Radix select of the k-th largest 31-bit key T. Pass 1 histograms the
  // top 11 key bits per chunk: T lies in bucket `top`, and `need` counts
  // the keys of that bucket the selection keeps.
  std::vector<std::array<uint32_t, 2048>> hist(nchunks);
  core::parallel_for(0, n, kSelectGrain, [&](int64_t lo, int64_t hi) {
    std::array<uint32_t, 2048>& h = hist[chunk_of(lo)];
    for (int64_t i = lo; i < hi; ++i) ++h[magnitude_key(d[i]) >> 20];
  });
  uint32_t top = 2047;
  int64_t need = k;
  for (;; --top) {
    int64_t count = 0;
    for (const auto& h : hist) count += h[top];
    if (count >= need) break;
    need -= count;
  }

  // Pass 2 gathers the bucket's members, chunk by chunk in index order; the
  // low 20 bits of T (11, then 9) come from histograms over them alone.
  std::vector<int64_t> member_end(nchunks);
  for (size_t c = 0; c < nchunks; ++c) {
    member_end[c] = (c == 0 ? 0 : member_end[c - 1]) + hist[c][top];
  }
  std::vector<int64_t> members(static_cast<size_t>(member_end.back()));
  core::parallel_for(0, n, kSelectGrain, [&](int64_t lo, int64_t hi) {
    const size_t c = chunk_of(lo);
    int64_t* out = members.data() + member_end[c] - hist[c][top];
    for (int64_t i = lo; i < hi; ++i) {
      if (magnitude_key(d[i]) >> 20 == top) *out++ = i;
    }
  });
  uint32_t threshold = top;
  for (const auto& [shift, width] : {std::pair{9, 11}, std::pair{0, 9}}) {
    const uint32_t mask = (1u << width) - 1;
    std::array<int64_t, 2048> h{};
    for (const int64_t i : members) {
      const uint32_t key = magnitude_key(d[i]);
      if (key >> (shift + width) == threshold) ++h[(key >> shift) & mask];
    }
    uint32_t digit = mask;
    while (h[digit] < need) need -= h[digit--];
    threshold = threshold << width | digit;
  }

  // Keep every key above T and the `need` lowest-index keys equal to T:
  // the top k under (|x| descending, index ascending). Each chunk's count
  // above T (its buckets above `top`, plus its members above T) and its
  // share of the ties fix its output offset, so one ascending pass writes
  // the indices straight into wire order.
  std::vector<int64_t> offset(nchunks), ties(nchunks);
  int64_t pos = 0;
  for (size_t c = 0; c < nchunks; ++c) {
    int64_t above = 0, eq = 0;
    for (uint32_t v = top + 1; v < 2048; ++v) above += hist[c][v];
    for (int64_t m = member_end[c] - hist[c][top]; m < member_end[c]; ++m) {
      const uint32_t key = magnitude_key(d[members[static_cast<size_t>(m)]]);
      above += key > threshold;
      eq += key == threshold;
    }
    ties[c] = std::min(eq, need);
    need -= ties[c];
    offset[c] = pos;
    pos += above + ties[c];
  }
  std::vector<int64_t> kept(static_cast<size_t>(k));
  core::parallel_for(0, n, kSelectGrain, [&](int64_t lo, int64_t hi) {
    const size_t c = chunk_of(lo);
    int64_t* out = kept.data() + offset[c];
    int64_t tie_quota = ties[c];
    for (int64_t i = lo; i < hi; ++i) {
      const uint32_t key = magnitude_key(d[i]);
      if (key > threshold) {
        *out++ = i;
      } else if (key == threshold && tie_quota > 0) {
        *out++ = i;
        --tie_quota;
      }
    }
  });
  return kept;
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
  const tensor::Shape shape{msg.shape_dims};
  return wire::decode_sparse(msg.body, shape, k_for(shape.numel()), "top-k");
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
