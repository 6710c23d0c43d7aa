#include "compress/randomk.h"

#include <bit>
#include <cstring>
#include <sstream>

#include "autograd/functions.h"
#include "compress/settings.h"
#include "compress/wire.h"
#include "core/threadpool.h"
#include "tensor/check.h"
#include "tensor/fp16.h"
#include "tensor/kernels/kernel_table.h"
#include "tensor/ops.h"

namespace actcomp::compress {

namespace {
// Elements per parallel chunk for the gather/scatter loops.
constexpr int64_t kEwGrain = int64_t{1} << 13;
}  // namespace

RandomKCompressor::RandomKCompressor(double fraction, uint64_t seed)
    : fraction_(fraction), gen_(seed) {
  ACTCOMP_CHECK(fraction > 0.0 && fraction <= 1.0,
                "random-k fraction must be in (0, 1], got " << fraction);
}

std::string RandomKCompressor::name() const {
  std::ostringstream os;
  os << "randk(f=" << fraction_ << ')';
  return os.str();
}

int64_t RandomKCompressor::k_for(int64_t numel) const {
  return kept_count(fraction_, numel);
}

CompressedMessage RandomKCompressor::do_encode(const tensor::Tensor& x) {
  const int64_t n = x.numel();
  const int64_t k = k_for(n);
  // Wire order is ascending: mark the k distinct draws in an n-bit bitmap,
  // then read them back in one scan.
  std::vector<uint64_t> drawn(static_cast<size_t>((n + 63) / 64));
  for (const int64_t j : gen_.sample_without_replacement(n, k)) {
    drawn[static_cast<size_t>(j >> 6)] |= uint64_t{1} << (j & 63);
  }
  std::vector<int64_t> kept;
  kept.reserve(static_cast<size_t>(k));
  for (size_t w = 0; w < drawn.size(); ++w) {
    for (uint64_t bits = drawn[w]; bits != 0; bits &= bits - 1) {
      kept.push_back(static_cast<int64_t>(w * 64) + std::countr_zero(bits));
    }
  }
  CompressedMessage msg;
  msg.shape_dims = x.shape().dims();
  msg.body.resize(static_cast<size_t>(k) * 6);
  const auto d = x.data();
  std::byte* idx_base = msg.body.data();
  std::byte* val_base = msg.body.data() + static_cast<size_t>(k) * 4;
  // Gather kept values per chunk, batch-convert through the SIMD fp16
  // kernel (same bit converter, same wire bytes).
  const tensor::kernels::KernelTable& kt = tensor::kernels::active_kernels();
  core::parallel_for(0, k, kEwGrain, [&](int64_t b, int64_t e) {
    const int64_t len = e - b;
    std::vector<float> vals(static_cast<size_t>(len));
    std::vector<uint16_t> half(static_cast<size_t>(len));
    for (int64_t i = b; i < e; ++i) {
      const int64_t src = kept[static_cast<size_t>(i)];
      const int32_t j = static_cast<int32_t>(src);
      std::memcpy(idx_base + i * 4, &j, 4);
      vals[static_cast<size_t>(i - b)] = d[static_cast<size_t>(src)];
    }
    kt.fp16_encode(vals.data(), half.data(), len);
    std::memcpy(val_base + b * 2, half.data(), static_cast<size_t>(len) * 2);
  });
  return msg;
}

tensor::Tensor RandomKCompressor::do_decode(const CompressedMessage& msg) const {
  const tensor::Shape shape{msg.shape_dims};
  return wire::decode_sparse(msg.body, shape, k_for(shape.numel()), "random-k");
}

autograd::Variable RandomKCompressor::apply(const autograd::Variable& x) {
  const tensor::Tensor& xv = x.value();
  const int64_t n = xv.numel();
  const std::vector<int64_t> kept = gen_.sample_without_replacement(n, k_for(n));

  tensor::Tensor out{xv.shape()};
  tensor::Tensor mask{xv.shape()};
  const auto din = xv.data();
  auto dout = out.data();
  auto dm = mask.data();
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
          const size_t j = static_cast<size_t>(kept[static_cast<size_t>(i)]);
          dout[j] = vals[static_cast<size_t>(i - b)];
          dm[j] = 1.0f;
        }
      });
  return autograd::custom_unary(
      x, std::move(out),
      [mask](const tensor::Tensor& g, const tensor::Tensor&) {
        return tensor::mul(g, mask);
      },
      "compress:" + name());
}

WireFormat RandomKCompressor::wire_size(const tensor::Shape& shape) const {
  const int64_t k = k_for(shape.numel());
  return WireFormat{.payload_bytes = k * 2, .metadata_bytes = k * 4};
}

}  // namespace actcomp::compress
