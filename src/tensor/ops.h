// Raw (non-differentiable) math kernels over Tensor.
//
// These are the primitives the autograd layer composes: the fixed op set a
// BERT training step and a KV-cache decode run (GEMM, bias add, GELU, the
// pooler's tanh, layernorm statistics, dropout's mask product, the losses'
// log-softmax and reductions), plus the comparison helpers tests use as
// oracles. Nothing here permutes or transposes: the GEMM reads transposed
// operands through strides, and attention (nn/attention.cpp) calls the
// kernel table's GEMM per head with its own softmax row pass.
// An op no layer, loss or compressor calls does not belong here.
// Broadcasting is deliberately limited to the two cases the library needs:
//   * identical shapes, and
//   * right-aligned broadcast of a lower-rank operand (e.g. adding a [h] bias
//     to a [b, s, h] activation).
// Anything fancier is a caller bug and throws.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace actcomp::tensor {

// ---- elementwise binary (with right-aligned broadcast of `b`) ----
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);

// ---- elementwise with scalar ----
Tensor mul_scalar(const Tensor& a, float s);

// ---- elementwise unary ----
Tensor tanh(const Tensor& a);
/// Gaussian error linear unit (tanh approximation, as in BERT).
Tensor gelu(const Tensor& a);
/// d gelu(x) / dx, elementwise.
Tensor gelu_grad(const Tensor& a);

// ---- matmul ----
/// (m,k) x (k,n) -> (m,n). `trans_a` / `trans_b` read an operand stored
/// transposed, (k,m) or (n,k), in place: no transpose is materialized.
Tensor matmul2d(const Tensor& a, const Tensor& b, bool trans_a = false,
                bool trans_b = false);
/// (m,k) x (k,n) -> (m,n), or (B,m,k) x (k,n) -> (B,m,n) with the rows of
/// every batch sharing the right operand.
Tensor matmul(const Tensor& a, const Tensor& b);

// ---- reductions ----
float sum_all(const Tensor& a);
float mean_all(const Tensor& a);
float max_all(const Tensor& a);
/// Sum over all dimensions except the last: [..., n] -> [n] (bias gradients).
Tensor sum_to_last(const Tensor& a);
/// Index of the max element along the last dimension, as floats: [..., n] -> [...].
Tensor argmax_last(const Tensor& a);

// ---- log-softmax (last dimension) ----
Tensor log_softmax_last(const Tensor& a);

// ---- normalization helpers ----
/// Per-row (last-dim) mean and reciprocal standard deviation, for layernorm.
struct RowMoments {
  Tensor mean;  ///< shape = a.shape() minus last dim
  Tensor rstd;  ///< 1 / sqrt(var + eps), same shape as mean
};
RowMoments row_moments(const Tensor& a, float eps);

// ---- comparison helpers (tests) ----
bool allclose(const Tensor& a, const Tensor& b, float rtol = 1e-5f, float atol = 1e-6f);
float max_abs_diff(const Tensor& a, const Tensor& b);
/// Relative Frobenius-norm error ||a-b|| / max(||b||, tiny).
float rel_error(const Tensor& a, const Tensor& b);
float frobenius_norm(const Tensor& a);

}  // namespace actcomp::tensor
