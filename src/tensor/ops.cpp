#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/threadpool.h"
#include "obs/profiler.h"
#include "tensor/check.h"
#include "tensor/kernels/kernel_table.h"

namespace actcomp::tensor {

namespace {

using core::kEwGrain;
using core::row_grain;

// True if `small` right-aligns with `big` (i.e. small's dims equal big's
// trailing dims). Identical shapes qualify trivially.
bool right_aligned(const Shape& big, const Shape& small) {
  if (small.rank() > big.rank()) return false;
  const int offset = big.rank() - small.rank();
  for (int i = 0; i < small.rank(); ++i) {
    if (small.dim(i) != big.dim(i + offset)) return false;
  }
  return true;
}

// Elementwise ops route through the active SIMD kernel tier
// (tensor/kernels): the parallel_for chunking — and thus 1-vs-N-thread
// identity — stays here in the caller, and the kernel handles [lo, hi).
// GELU's tanh is the kernel layer's polynomial (DESIGN.md §15); the
// pooler's tensor::tanh stays on libm, as do log_softmax's exp and log.

Tensor binary_kernel(const Tensor& a, const Tensor& b,
                     void (*kfn)(const float*, const float*, float*, int64_t,
                                 int64_t, int64_t),
                     const char* name) {
  ACTCOMP_CHECK(right_aligned(a.shape(), b.shape()),
                name << ": shape " << b.shape().str()
                     << " does not right-align with " << a.shape().str());
  Tensor out(a.shape());
  const auto da = a.data();
  const auto db = b.data();
  auto dout = out.data();
  const int64_t nb = b.numel();
  const int64_t n = static_cast<int64_t>(da.size());
  ACTCOMP_CHECK(nb > 0 || n == 0, name << ": empty broadcast operand");
  core::parallel_for(0, n, kEwGrain, [&](int64_t lo, int64_t hi) {
    kfn(da.data(), db.data(), dout.data(), lo, hi, nb);
  });
  return out;
}

Tensor unary_kernel(const Tensor& a,
                    void (*kfn)(const float*, float*, int64_t, int64_t)) {
  Tensor out(a.shape());
  const auto da = a.data();
  auto dout = out.data();
  core::parallel_for(0, static_cast<int64_t>(da.size()), kEwGrain,
                     [&](int64_t lo, int64_t hi) {
                       kfn(da.data(), dout.data(), lo, hi);
                     });
  return out;
}

Tensor scalar_kernel(const Tensor& a, float s,
                     void (*kfn)(const float*, float, float*, int64_t,
                                 int64_t)) {
  Tensor out(a.shape());
  const auto da = a.data();
  auto dout = out.data();
  core::parallel_for(0, static_cast<int64_t>(da.size()), kEwGrain,
                     [&](int64_t lo, int64_t hi) {
                       kfn(da.data(), s, dout.data(), lo, hi);
                     });
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_kernel(a, b, kernels::active_kernels().ew_add, "add");
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_kernel(a, b, kernels::active_kernels().ew_sub, "sub");
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_kernel(a, b, kernels::active_kernels().ew_mul, "mul");
}

Tensor mul_scalar(const Tensor& a, float s) {
  return scalar_kernel(a, s, kernels::active_kernels().ew_mul_scalar);
}

Tensor tanh(const Tensor& a) {
  Tensor out(a.shape());
  const auto da = a.data();
  auto dout = out.data();
  core::parallel_for(0, static_cast<int64_t>(da.size()), kEwGrain,
                     [&](int64_t lo, int64_t hi) {
                       for (int64_t i = lo; i < hi; ++i) {
                         dout[static_cast<size_t>(i)] = std::tanh(da[static_cast<size_t>(i)]);
                       }
                     });
  return out;
}

Tensor gelu(const Tensor& a) {
  return unary_kernel(a, kernels::active_kernels().ew_gelu);
}
Tensor gelu_grad(const Tensor& a) {
  return unary_kernel(a, kernels::active_kernels().ew_gelu_grad);
}

// ---------------------------------------------------------------------------
// Blocked GEMM (DESIGN.md §10/§15).
//
// The GEMM driver and per-ISA micro-tiles live in tensor/kernels
// (gemm_common.h + the per-tier TUs); matmul dispatches through the active
// kernel table. Every tier walks k in ascending order per C element with
// one fused multiply-add per step, so results are bit-identical across
// tiers, thread counts and shapes on either side of kSimpleGemmFlops.

Tensor matmul2d(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  ACTCOMP_CHECK(a.rank() == 2 && b.rank() == 2,
                "matmul2d needs rank-2 operands, got " << a.shape().str() << " x "
                                                       << b.shape().str());
  const int64_t m = a.dim(trans_a ? 1 : 0), k = a.dim(trans_a ? 0 : 1);
  const int64_t k2 = b.dim(trans_b ? 1 : 0), n = b.dim(trans_b ? 0 : 1);
  ACTCOMP_CHECK(k == k2, "matmul2d inner dims differ: "
                             << a.shape().str() << (trans_a ? "^T" : "") << " x "
                             << b.shape().str() << (trans_b ? "^T" : ""));
  ACTCOMP_PROFILE("tensor.matmul2d");
  Tensor out(Shape{m, n});
  // A stored transposed is (k, m): element (i, kk) sits at a[kk * m + i].
  kernels::active_kernels().gemm_into(
      a.data().data(), trans_a ? 1 : k, trans_a ? m : 1, b.data().data(),
      trans_b ? 1 : n, trans_b ? k : 1, out.data().data(), n, m, k, n);
  return out;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.rank() == 2 && b.rank() == 2) return matmul2d(a, b);
  ACTCOMP_CHECK(a.rank() == 3 && b.rank() == 2,
                "matmul: unsupported ranks " << a.rank() << " x " << b.rank());
  const int64_t B = a.dim(0), m = a.dim(1), k = a.dim(2);
  Tensor flat = a.reshape(Shape{B * m, k});
  return matmul2d(flat, b).reshape(Shape{B, m, b.dim(1)});
}

namespace {
// Split shape into (rows, cols) where cols is the last dim.
std::pair<int64_t, int64_t> rows_cols(const Tensor& a) {
  ACTCOMP_CHECK(a.rank() >= 1, "reduction needs rank >= 1");
  const int64_t cols = a.dim(-1);
  const int64_t rows = cols == 0 ? 0 : a.numel() / cols;
  return {rows, cols};
}

Shape drop_last(const Shape& s) {
  std::vector<int64_t> d = s.dims();
  d.pop_back();
  return Shape(d);
}
}  // namespace

Tensor sum_to_last(const Tensor& a) {
  const auto [rows, cols] = rows_cols(a);
  Tensor out{Shape{cols}};
  const float* din = a.data().data();
  float* dout = out.data().data();
  // Whole rows in ascending order: each column sums its rows first to last.
  const kernels::KernelTable& kt = kernels::active_kernels();
  for (int64_t r = 0; r < rows; ++r) kt.ew_add(dout, din + r * cols, dout, 0, cols, cols);
  return out;
}

Tensor argmax_last(const Tensor& a) {
  const auto [rows, cols] = rows_cols(a);
  ACTCOMP_CHECK(cols > 0, "argmax_last of empty rows");
  Tensor out{drop_last(a.shape())};
  const auto din = a.data();
  auto dout = out.data();
  core::parallel_for(0, rows, row_grain(cols), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      int64_t best = 0;
      float bv = din[static_cast<size_t>(r * cols)];
      for (int64_t c = 1; c < cols; ++c) {
        const float v = din[static_cast<size_t>(r * cols + c)];
        if (v > bv) {
          bv = v;
          best = c;
        }
      }
      dout[static_cast<size_t>(r)] = static_cast<float>(best);
    }
  });
  return out;
}

Tensor log_softmax_last(const Tensor& a) {
  const auto [rows, cols] = rows_cols(a);
  Tensor out(a.shape());
  const auto din = a.data();
  auto dout = out.data();
  const kernels::KernelTable& kt = kernels::active_kernels();
  core::parallel_for(0, rows, row_grain(cols), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const size_t base = static_cast<size_t>(r * cols);
      const float m = kt.row_max(din.data() + base, cols);
      double z = 0.0;
      for (int64_t c = 0; c < cols; ++c) z += std::exp(din[base + static_cast<size_t>(c)] - m);
      const float lz = m + static_cast<float>(std::log(z));
      kt.ew_sub_scalar(din.data(), lz, dout.data(), r * cols, (r + 1) * cols);
    }
  });
  return out;
}

RowMoments row_moments(const Tensor& a, float eps) {
  const auto [rows, cols] = rows_cols(a);
  ACTCOMP_CHECK(cols > 0, "row_moments of empty rows");
  RowMoments mo{Tensor{drop_last(a.shape())}, Tensor{drop_last(a.shape())}};
  const auto din = a.data();
  auto dmean = mo.mean.data();
  auto drstd = mo.rstd.data();
  const kernels::KernelTable& kt = kernels::active_kernels();
  core::parallel_for(0, rows, row_grain(cols), [&](int64_t r0, int64_t r1) {
    kt.rows_moments(din.data(), r0, r1, cols, eps, dmean.data(), drstd.data());
  });
  return mo;
}

bool allclose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (a.shape() != b.shape()) return false;
  const auto da = a.data();
  const auto db = b.data();
  for (size_t i = 0; i < da.size(); ++i) {
    const float diff = std::fabs(da[i] - db[i]);
    if (diff > atol + rtol * std::fabs(db[i])) return false;
  }
  return true;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  ACTCOMP_CHECK(a.shape() == b.shape(), "max_abs_diff shape mismatch");
  const auto da = a.data();
  const auto db = b.data();
  float m = 0.0f;
  for (size_t i = 0; i < da.size(); ++i) m = std::max(m, std::fabs(da[i] - db[i]));
  return m;
}

float frobenius_norm(const Tensor& a) {
  double s = 0.0;
  for (float v : a.data()) s += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(s));
}

float rel_error(const Tensor& a, const Tensor& b) {
  ACTCOMP_CHECK(a.shape() == b.shape(), "rel_error shape mismatch");
  const float nb = frobenius_norm(b);
  double s = 0.0;
  const auto da = a.data();
  const auto db = b.data();
  for (size_t i = 0; i < da.size(); ++i) {
    const double d = static_cast<double>(da[i]) - db[i];
    s += d * d;
  }
  return static_cast<float>(std::sqrt(s)) / std::max(nb, 1e-12f);
}

}  // namespace actcomp::tensor
