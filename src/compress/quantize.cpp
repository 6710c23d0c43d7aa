#include "compress/quantize.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "compress/wire.h"
#include "core/threadpool.h"
#include "tensor/check.h"
#include "tensor/fp16.h"
#include "tensor/kernels/kernel_table.h"

namespace actcomp::compress {

namespace {
// Rows = product of all dims but the last; a rank-1 tensor is one row.
std::pair<int64_t, int64_t> rows_cols(const tensor::Shape& s) {
  ACTCOMP_CHECK(s.rank() >= 1, "cannot quantize a scalar shape");
  const int64_t cols = s.dim(-1);
  return {cols == 0 ? 0 : s.numel() / cols, cols};
}

using core::kEwGrain;
using core::row_grain;
static_assert(kEwGrain % 8 == 0, "code chunks must hold whole groups");

// The payload is the flattened code stream packed LSB-first (WIRE_FORMATS.md
// §3.4), so every 8 codes of B bits fill exactly B bytes: code j of a group
// is bits [jB, jB + B) of the group's little-endian B-byte word. Each group
// packs and unpacks on its own, whatever row it falls in, so the codecs
// below run one parallel path for every width and row length.

/// The `width`-bit pattern `v` repeated across a 64-bit word.
constexpr uint64_t splat(uint64_t v, int width) {
  uint64_t r = 0;
  for (int i = 0; i < 64; i += width) r |= v << i;
  return r;
}

/// Within each `Lane`-bit lane, the value at the upper half's start moves
/// down to sit right above the lower half's value (each holds B·Lane/16
/// bits). Three merges turn 8 byte-wide codes into one 8B-bit group.
template <int B, int Lane>
uint64_t merge_halves(uint64_t v) {
  constexpr int kHave = B * Lane / 16;
  constexpr uint64_t kLow = splat((uint64_t{1} << kHave) - 1, Lane);
  return (v & kLow) | ((v >> (Lane / 2 - kHave)) & (kLow << kHave));
}

/// The inverse of merge_halves.
template <int B, int Lane>
uint64_t split_halves(uint64_t v) {
  constexpr int kHave = B * Lane / 16;
  constexpr uint64_t kLow = splat((uint64_t{1} << kHave) - 1, Lane);
  return (v & kLow) | ((v & (kLow << kHave)) << (Lane / 2 - kHave));
}

/// Packs codes [0, n), each below 2^B, into ceil(n·B/8) bytes at dst.
template <int B>
void pack_codes(const uint8_t* q, int64_t n, std::byte* dst) {
  const auto pack = [](uint64_t v) {
    return merge_halves<B, 64>(merge_halves<B, 32>(merge_halves<B, 16>(v)));
  };
  int64_t g = 0;
  for (; 8 * g + 8 <= n; ++g) {
    uint64_t v = 0;
    std::memcpy(&v, q + 8 * g, 8);
    v = pack(v);
    std::memcpy(dst + B * g, &v, B);
  }
  if (const int64_t rest = n - 8 * g; rest > 0) {
    uint64_t v = 0;  // missing codes pack as zero bits: the padding
    std::memcpy(&v, q + 8 * g, static_cast<size_t>(rest));
    v = pack(v);
    std::memcpy(dst + B * g, &v, static_cast<size_t>((rest * B + 7) / 8));
  }
}

/// Unpacks codes [0, n) from the ceil(n·B/8) bytes at src.
template <int B>
void unpack_codes(const std::byte* src, int64_t n, uint8_t* q) {
  const auto unpack = [](uint64_t v) {
    return split_halves<B, 16>(split_halves<B, 32>(split_halves<B, 64>(v)));
  };
  int64_t g = 0;
  for (; 8 * g + 8 <= n; ++g) {
    uint64_t v = 0;
    std::memcpy(&v, src + B * g, B);
    v = unpack(v);
    std::memcpy(q + 8 * g, &v, 8);
  }
  if (const int64_t rest = n - 8 * g; rest > 0) {
    uint64_t v = 0;
    std::memcpy(&v, src + B * g, static_cast<size_t>((rest * B + 7) / 8));
    v = unpack(v);
    std::memcpy(q + 8 * g, &v, static_cast<size_t>(rest));
  }
}

using PackFn = void (*)(const uint8_t*, int64_t, std::byte*);
using UnpackFn = void (*)(const std::byte*, int64_t, uint8_t*);
constexpr PackFn kPack[] = {nullptr,        pack_codes<1>, pack_codes<2>,
                            pack_codes<3>, pack_codes<4>, pack_codes<5>,
                            pack_codes<6>, pack_codes<7>, pack_codes<8>};
constexpr UnpackFn kUnpack[] = {nullptr,          unpack_codes<1>, unpack_codes<2>,
                                unpack_codes<3>, unpack_codes<4>, unpack_codes<5>,
                                unpack_codes<6>, unpack_codes<7>, unpack_codes<8>};

/// Calls fn(first, count, row) for each row's share of elements [e0, e1)
/// of a row-major tensor with `cols` columns.
template <typename Fn>
void for_row_spans(int64_t e0, int64_t e1, int64_t cols, Fn&& fn) {
  for (int64_t e = e0; e < e1;) {
    const int64_t r = e / cols;
    const int64_t end = std::min(e1, (r + 1) * cols);
    fn(e, end - e, r);
    e = end;
  }
}
}  // namespace

QuantizeCompressor::QuantizeCompressor(int bits)
    : bits_(bits), levels_(1 << bits) {
  ACTCOMP_CHECK(bits >= 1 && bits <= 8, "quantize bits must be in [1, 8], got " << bits);
}

std::string QuantizeCompressor::name() const {
  std::ostringstream os;
  os << "quant(" << bits_ << "b)";
  return os.str();
}

QuantizeCompressor::RowParams QuantizeCompressor::row_params(const float* row,
                                                             int64_t cols) const {
  float lo, hi;
  tensor::kernels::active_kernels().row_minmax(row, cols, &lo, &hi);
  // Round the affine params through fp16 — that is what travels on the wire —
  // so round_trip matches decode(encode(x)) bit-for-bit.
  lo = tensor::fp16_bits_to_fp32(tensor::fp32_to_fp16_bits(lo));
  hi = tensor::fp16_bits_to_fp32(tensor::fp32_to_fp16_bits(hi));
  float scale = hi > lo ? (hi - lo) / static_cast<float>(levels_ - 1) : 0.0f;
  scale = tensor::fp16_bits_to_fp32(tensor::fp32_to_fp16_bits(scale));
  return {lo, scale};
}

CompressedMessage QuantizeCompressor::do_encode(const tensor::Tensor& x) {
  const auto [rows, cols] = rows_cols(x.shape());
  const int64_t numel = x.numel();
  CompressedMessage msg;
  msg.shape_dims = x.shape().dims();
  const int64_t header = rows * 4;
  msg.body.resize(static_cast<size_t>(header + (numel * bits_ + 7) / 8));
  const float* d = x.data().data();

  // Per-row (lo, scale), fp16 on the wire: the min/max scan dominates
  // encode cost.
  std::vector<RowParams> params(static_cast<size_t>(rows));
  core::parallel_for(0, rows, row_grain(cols), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const RowParams p = row_params(d + r * cols, cols);
      params[static_cast<size_t>(r)] = p;
      const uint16_t half[2] = {tensor::fp32_to_fp16_bits(p.lo),
                                tensor::fp32_to_fp16_bits(p.scale)};
      std::memcpy(msg.body.data() + r * 4, half, 4);
    }
  });

  // Codes, kEwGrain at a time (whole groups, so each chunk owns its bytes):
  // the SIMD kernel quantizes each row's span into a code buffer, then
  // the chunk packs it group by group.
  const tensor::kernels::KernelTable& kt = tensor::kernels::active_kernels();
  std::byte* payload = msg.body.data() + header;
  const PackFn pack = kPack[bits_];
  core::parallel_for(0, numel, kEwGrain, [&](int64_t e0, int64_t e1) {
    uint8_t q[kEwGrain];
    for_row_spans(e0, e1, cols, [&](int64_t e, int64_t len, int64_t r) {
      const RowParams& p = params[static_cast<size_t>(r)];
      if (p.scale > 0.0f) {
        kt.quant_quantize_row(d + e, len, p.lo, p.scale, levels_, q + (e - e0));
      } else {
        std::fill_n(q + (e - e0), len, uint8_t{0});
      }
    });
    pack(q, e1 - e0, payload + e0 / 8 * bits_);
  });
  return msg;
}

tensor::Tensor QuantizeCompressor::do_decode(const CompressedMessage& msg) const {
  tensor::Shape shape{msg.shape_dims};
  const auto [rows, cols] = rows_cols(shape);
  // Exactly 4 bytes per row, then ceil(numel * b / 8) code bytes
  // (WIRE_FORMATS.md §3.4), checked before anything is allocated. The row
  // term is bounded by the body first and the code term is formed as
  // numel / 8 * b, so a forged shape cannot overflow the length.
  const uint64_t body = msg.body.size();
  const auto numel = static_cast<uint64_t>(shape.numel());
  const auto b = static_cast<uint64_t>(bits_);
  ACTCOMP_CHECK(static_cast<uint64_t>(rows) <= body / 4 &&
                    4 * static_cast<uint64_t>(rows) + numel / 8 * b +
                            (numel % 8 * b + 7) / 8 ==
                        body,
                "quantize wire message has " << body << " body bytes for shape "
                                             << shape.str());
  tensor::Tensor out{shape};
  float* d = out.data().data();
  size_t off = 0;
  std::vector<RowParams> params(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    const float lo = tensor::fp16_bits_to_fp32(wire::read_pod<uint16_t>(msg.body, off));
    const float scale = tensor::fp16_bits_to_fp32(wire::read_pod<uint16_t>(msg.body, off));
    params[static_cast<size_t>(r)] = {lo, scale};
  }
  // Decode mirrors encode: unpack a chunk's groups into a code buffer, then
  // the SIMD kernel applies each row's affine map to its span (same
  // mul-then-add expression per element, so the floats are bit-identical).
  const tensor::kernels::KernelTable& kt = tensor::kernels::active_kernels();
  const std::byte* payload = msg.body.data() + off;
  const UnpackFn unpack = kUnpack[bits_];
  core::parallel_for(0, shape.numel(), kEwGrain, [&](int64_t e0, int64_t e1) {
    uint8_t q[kEwGrain];
    unpack(payload + e0 / 8 * bits_, e1 - e0, q);
    for_row_spans(e0, e1, cols, [&](int64_t e, int64_t len, int64_t r) {
      const RowParams& p = params[static_cast<size_t>(r)];
      kt.quant_dequantize_row(q + (e - e0), len, p.lo, p.scale, d + e);
    });
  });
  return out;
}

tensor::Tensor QuantizeCompressor::round_trip(const tensor::Tensor& x) {
  const auto [rows, cols] = rows_cols(x.shape());
  tensor::Tensor out{x.shape()};
  const auto din = x.data();
  auto dout = out.data();
  const tensor::kernels::KernelTable& kt = tensor::kernels::active_kernels();
  core::parallel_for(0, rows, row_grain(cols), [&](int64_t r0, int64_t r1) {
    std::vector<uint8_t> qbuf(static_cast<size_t>(cols));
    for (int64_t r = r0; r < r1; ++r) {
      const RowParams p = row_params(din.data() + r * cols, cols);
      if (p.scale <= 0.0f) {
        std::fill(dout.data() + r * cols, dout.data() + (r + 1) * cols, p.lo);
      } else {
        kt.quant_quantize_row(din.data() + r * cols, cols, p.lo, p.scale,
                              levels_, qbuf.data());
        kt.quant_dequantize_row(qbuf.data(), cols, p.lo, p.scale,
                                dout.data() + r * cols);
      }
    }
  });
  return out;
}

WireFormat QuantizeCompressor::wire_size(const tensor::Shape& shape) const {
  const auto [rows, cols] = rows_cols(shape);
  (void)cols;
  return WireFormat{.payload_bytes = (shape.numel() * bits_ + 7) / 8,
                    .metadata_bytes = rows * 4};
}

}  // namespace actcomp::compress
