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

using core::row_grain;
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
  CompressedMessage msg;
  msg.shape_dims = x.shape().dims();
  const int64_t payload = (x.numel() * bits_ + 7) / 8;
  const int64_t header = rows * 4;

  const auto d = x.data();
  // Per-row (lo, scale): the min/max scan dominates encode cost.
  std::vector<RowParams> params(static_cast<size_t>(rows));
  core::parallel_for(0, rows, row_grain(cols), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      params[static_cast<size_t>(r)] = row_params(d.data() + r * cols, cols);
    }
  });
  for (int64_t r = 0; r < rows; ++r) {
    wire::append_pod<uint16_t>(
        msg.body, tensor::fp32_to_fp16_bits(params[static_cast<size_t>(r)].lo));
    wire::append_pod<uint16_t>(
        msg.body, tensor::fp32_to_fp16_bits(params[static_cast<size_t>(r)].scale));
  }

  // Payload: bit-packed codes, little-endian within each byte. Quantization
  // is two-phase — the SIMD kernel fills a per-row code buffer, then an
  // integer pass packs it — which produces the same bytes as the old fused
  // per-element loop (the codes are identical; packing is pure bit logic).
  const tensor::kernels::KernelTable& kt = tensor::kernels::active_kernels();
  const auto quantize_row = [&](const RowParams& p, int64_t r, uint8_t* qbuf) {
    if (p.scale > 0.0f) {
      kt.quant_quantize_row(d.data() + r * cols, cols, p.lo, p.scale, levels_,
                            qbuf);
    } else {
      std::fill(qbuf, qbuf + cols, uint8_t{0});
    }
  };
  const int64_t row_bits = cols * bits_;
  if (row_bits % 8 == 0) {
    // Rows start on byte boundaries, so every row owns a disjoint byte
    // range of the payload and packs independently — byte-identical to the
    // serial pass below.
    const int64_t row_bytes = row_bits / 8;
    msg.body.resize(static_cast<size_t>(header + payload));
    std::byte* base = msg.body.data() + header;
    core::parallel_for(0, rows, row_grain(cols), [&](int64_t r0, int64_t r1) {
      std::vector<uint8_t> qbuf(static_cast<size_t>(cols));
      for (int64_t r = r0; r < r1; ++r) {
        quantize_row(params[static_cast<size_t>(r)], r, qbuf.data());
        std::byte* dst = base + r * row_bytes;
        if (bits_ == 8) {
          std::memcpy(dst, qbuf.data(), static_cast<size_t>(cols));
          continue;
        }
        uint32_t acc = 0;
        int acc_bits = 0;
        for (int64_t c = 0; c < cols; ++c) {
          acc |= static_cast<uint32_t>(qbuf[static_cast<size_t>(c)]) << acc_bits;
          acc_bits += bits_;
          while (acc_bits >= 8) {
            *dst++ = static_cast<std::byte>(acc & 0xFFu);
            acc >>= 8;
            acc_bits -= 8;
          }
        }
      }
    });
    return msg;
  }

  // Rows straddle byte boundaries: the accumulator threads through the whole
  // tensor, so the pack stays serial (the quantize kernel still runs per row).
  std::vector<uint8_t> qbuf(static_cast<size_t>(cols));
  uint32_t acc = 0;
  int acc_bits = 0;
  for (int64_t r = 0; r < rows; ++r) {
    quantize_row(params[static_cast<size_t>(r)], r, qbuf.data());
    for (int64_t c = 0; c < cols; ++c) {
      acc |= static_cast<uint32_t>(qbuf[static_cast<size_t>(c)]) << acc_bits;
      acc_bits += bits_;
      while (acc_bits >= 8) {
        wire::append_pod<uint8_t>(msg.body, static_cast<uint8_t>(acc & 0xFFu));
        acc >>= 8;
        acc_bits -= 8;
      }
    }
  }
  if (acc_bits > 0) wire::append_pod<uint8_t>(msg.body, static_cast<uint8_t>(acc & 0xFFu));
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
  auto d = out.data();
  size_t off = 0;
  std::vector<RowParams> params(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    const float lo = tensor::fp16_bits_to_fp32(wire::read_pod<uint16_t>(msg.body, off));
    const float scale = tensor::fp16_bits_to_fp32(wire::read_pod<uint16_t>(msg.body, off));
    params[static_cast<size_t>(r)] = {lo, scale};
  }
  const uint32_t mask = static_cast<uint32_t>(levels_ - 1);
  const int64_t row_bits = cols * bits_;
  // Decode mirrors encode's two phases: unpack codes into a per-row byte
  // buffer, then the SIMD kernel applies the affine map (same mul-then-add
  // expression as the old fused loop, so the floats are bit-identical).
  const tensor::kernels::KernelTable& kt = tensor::kernels::active_kernels();
  if (row_bits % 8 == 0) {
    const int64_t row_bytes = row_bits / 8;
    const std::byte* base = msg.body.data() + off;
    core::parallel_for(0, rows, row_grain(cols), [&](int64_t r0, int64_t r1) {
      std::vector<uint8_t> qbuf(static_cast<size_t>(cols));
      for (int64_t r = r0; r < r1; ++r) {
        const RowParams& p = params[static_cast<size_t>(r)];
        const std::byte* src = base + r * row_bytes;
        if (bits_ == 8) {
          kt.quant_dequantize_row(reinterpret_cast<const uint8_t*>(src), cols,
                                  p.lo, p.scale,
                                  d.data() + r * cols);
          continue;
        }
        uint32_t acc = 0;
        int acc_bits = 0;
        for (int64_t c = 0; c < cols; ++c) {
          while (acc_bits < bits_) {
            acc |= static_cast<uint32_t>(static_cast<uint8_t>(*src++)) << acc_bits;
            acc_bits += 8;
          }
          qbuf[static_cast<size_t>(c)] = static_cast<uint8_t>(acc & mask);
          acc >>= bits_;
          acc_bits -= bits_;
        }
        kt.quant_dequantize_row(qbuf.data(), cols, p.lo, p.scale,
                                d.data() + r * cols);
      }
    });
    return out;
  }

  std::vector<uint8_t> qbuf(static_cast<size_t>(cols));
  uint32_t acc = 0;
  int acc_bits = 0;
  for (int64_t r = 0; r < rows; ++r) {
    const RowParams& p = params[static_cast<size_t>(r)];
    for (int64_t c = 0; c < cols; ++c) {
      while (acc_bits < bits_) {
        acc |= static_cast<uint32_t>(wire::read_pod<uint8_t>(msg.body, off)) << acc_bits;
        acc_bits += 8;
      }
      qbuf[static_cast<size_t>(c)] = static_cast<uint8_t>(acc & mask);
      acc >>= bits_;
      acc_bits -= bits_;
    }
    kt.quant_dequantize_row(qbuf.data(), cols, p.lo, p.scale,
                            d.data() + r * cols);
  }
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
