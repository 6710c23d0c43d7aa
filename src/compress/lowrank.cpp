#include "compress/lowrank.h"

#include <cmath>
#include <sstream>

#include "compress/wire.h"
#include "tensor/check.h"
#include "tensor/fp16.h"
#include "tensor/ops.h"

namespace actcomp::compress {

namespace ts = actcomp::tensor;

LowRankCompressor::LowRankCompressor(int64_t rank, uint64_t seed,
                                     int power_iterations)
    : rank_(rank), power_iterations_(power_iterations), gen_(seed) {
  ACTCOMP_CHECK(rank >= 1, "low-rank compressor needs rank >= 1, got " << rank);
  ACTCOMP_CHECK(power_iterations >= 1, "need at least one power iteration");
}

std::string LowRankCompressor::name() const {
  std::ostringstream os;
  os << "lowrank(r=" << rank_ << ')';
  return os.str();
}

namespace {

/// Flatten [..., h] to [rows, h].
ts::Tensor as_matrix(const ts::Tensor& x) {
  ACTCOMP_CHECK(x.rank() >= 1, "cannot factorize a scalar");
  const int64_t cols = x.dim(-1);
  ACTCOMP_CHECK(cols > 0 && x.numel() % cols == 0, "bad matrix view");
  return x.reshape(ts::Shape{x.numel() / cols, cols});
}

/// In-place modified Gram-Schmidt on the columns of m ([rows, r]), with two
/// orthogonalization passes for stability. Columns that become numerically
/// rank-deficient (their residual is a vanishing fraction of their original
/// norm) are ZEROED rather than normalized — normalizing amplifies rounding
/// noise into a spurious non-orthogonal direction when the input's true
/// rank is below r.
void orthonormalize_columns(ts::Tensor& m) {
  const int64_t rows = m.dim(0);
  const int64_t r = m.dim(1);
  auto d = m.data();
  auto col_norm2 = [&](int64_t j) {
    double n2 = 0;
    for (int64_t i = 0; i < rows; ++i) {
      n2 += static_cast<double>(d[static_cast<size_t>(i * r + j)]) *
            d[static_cast<size_t>(i * r + j)];
    }
    return n2;
  };
  for (int64_t j = 0; j < r; ++j) {
    const double original_norm2 = col_norm2(j);
    for (int pass = 0; pass < 2; ++pass) {
      for (int64_t k = 0; k < j; ++k) {
        double dot = 0;
        for (int64_t i = 0; i < rows; ++i) {
          dot += static_cast<double>(d[static_cast<size_t>(i * r + j)]) *
                 d[static_cast<size_t>(i * r + k)];
        }
        for (int64_t i = 0; i < rows; ++i) {
          d[static_cast<size_t>(i * r + j)] -=
              static_cast<float>(dot) * d[static_cast<size_t>(i * r + k)];
        }
      }
    }
    const double norm2 = col_norm2(j);
    const bool deficient = norm2 <= 1e-10 * (original_norm2 + 1e-30);
    const float inv =
        deficient ? 0.0f : static_cast<float>(1.0 / std::sqrt(norm2));
    for (int64_t i = 0; i < rows; ++i) {
      d[static_cast<size_t>(i * r + j)] *= inv;
    }
  }
}

}  // namespace

LowRankCompressor::Factors LowRankCompressor::factorize(const ts::Tensor& x2d) {
  const int64_t rows = x2d.dim(0);
  const int64_t cols = x2d.dim(1);
  const int64_t r = std::min({rank_, rows, cols});
  // Subspace iteration: Q <- N(0,1); repeat { P = X Q, orth(P), Q = X^T P }.
  ts::Tensor q = gen_.normal(ts::Shape{cols, r});
  ts::Tensor p;
  for (int it = 0; it < power_iterations_; ++it) {
    p = ts::matmul2d(x2d, q);
    orthonormalize_columns(p);
    q = ts::matmul2d(x2d, p, /*trans_a=*/true);
  }
  return {std::move(p), std::move(q)};
}

CompressedMessage LowRankCompressor::do_encode(const ts::Tensor& x) {
  const ts::Tensor x2d = as_matrix(x);
  const Factors f = factorize(x2d);
  CompressedMessage msg;
  msg.shape_dims = x.shape().dims();
  msg.body.reserve(static_cast<size_t>((f.p.numel() + f.q.numel()) * 2 + 8));
  wire::append_pod<int32_t>(msg.body, static_cast<int32_t>(f.p.dim(1)));
  wire::append_fp16(msg.body, f.p);
  wire::append_fp16(msg.body, f.q);
  return msg;
}

ts::Tensor LowRankCompressor::do_decode(const CompressedMessage& msg) const {
  ts::Shape shape{msg.shape_dims};
  ACTCOMP_CHECK(shape.rank() >= 1 && shape.dim(-1) >= 1,
                "low-rank wire message has shape " << shape.str());
  const int64_t cols = shape.dim(-1);
  const int64_t rows = shape.numel() / cols;
  size_t off = 0;
  const int64_t r = wire::read_pod<int32_t>(msg.body, off);
  ACTCOMP_CHECK(r >= 1 && r <= std::min(rows, cols), "bad rank on wire");
  // Exactly 4 + 2·(rows + cols)·r bytes, compared by division so a forged
  // shape cannot overflow the product, before anything is allocated.
  const size_t values = (msg.body.size() - 4) / 2;
  const auto rank = static_cast<size_t>(r);
  ACTCOMP_CHECK(msg.body.size() % 2 == 0 && values % rank == 0 &&
                    values / rank == static_cast<size_t>(rows) + static_cast<size_t>(cols),
                "low-rank wire message has " << msg.body.size()
                                             << " body bytes, want 4 + 2 x (" << rows
                                             << " + " << cols << ") x " << r);
  ts::Tensor p(ts::Shape{rows, r}, wire::read_fp16(msg.body, off, rows * r));
  ts::Tensor q(ts::Shape{cols, r}, wire::read_fp16(msg.body, off, cols * r));
  return ts::matmul2d(p, q, false, /*trans_b=*/true).reshape(shape);
}

ts::Tensor LowRankCompressor::round_trip(const ts::Tensor& x) {
  const ts::Tensor x2d = as_matrix(x);
  const Factors f = factorize(x2d);
  return ts::matmul2d(ts::fp16_round(f.p), ts::fp16_round(f.q), false,
                      /*trans_b=*/true)
      .reshape(x.shape());
}

WireFormat LowRankCompressor::wire_size(const ts::Shape& shape) const {
  const int64_t cols = shape.dim(-1);
  const int64_t rows = shape.numel() / cols;
  const int64_t r = std::min({rank_, rows, cols});
  return WireFormat{.payload_bytes = (rows + cols) * r * 2, .metadata_bytes = 4};
}

int64_t LowRankCompressor::rank_for_budget(const ts::Shape& shape,
                                           int64_t target_bytes) {
  const int64_t cols = shape.dim(-1);
  const int64_t rows = shape.numel() / cols;
  const int64_t r = target_bytes / ((rows + cols) * 2);
  return std::max<int64_t>(1, r);
}

}  // namespace actcomp::compress
