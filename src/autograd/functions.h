// Differentiable operations over Variables.
//
// Each function computes the forward value with tensor:: kernels and attaches
// a backward closure. Fused ops (layernorm, softmax cross-entropy, the bias
// epilogue) carry hand-derived gradients so tapes stay short — this library
// trains real (small) Transformers on one CPU core. Attention is one such
// node too, written in nn/attention.cpp over the strided GEMM.
#pragma once

#include <cstdint>
#include <vector>

#include "autograd/variable.h"
#include "tensor/random.h"

namespace actcomp::autograd {

// ---- arithmetic ----
Variable add(const Variable& a, const Variable& b);   // right-aligned broadcast of b

// ---- matmul / structure ----
Variable matmul(const Variable& a, const Variable& b);  // as tensor::matmul
Variable reshape(const Variable& a, tensor::Shape shape);

// ---- activations ----
/// Unfused GELU: the composition bias_act(x, b, Act::kGelu) must match.
Variable gelu(const Variable& a);
Variable tanh(const Variable& a);

/// Activation applied by the fused bias epilogue.
enum class Act { kNone, kGelu };

/// Fused y = act(x + bias), with bias broadcast right-aligned like add().
/// Byte-identical to add(x, bias) followed by the activation — the same
/// kernel expressions run and the backward accumulates the same terms —
/// but the tape carries one node.
Variable bias_act(const Variable& x, const Variable& bias, Act act);

// ---- normalization ----
Variable layernorm(const Variable& x, const Variable& gamma, const Variable& beta,
                   float eps = 1e-5f);

// ---- regularization ----
Variable dropout(const Variable& a, float p, tensor::Generator& gen, bool training);

/// Gather rows of a 2-D variable: out[i, :] = x[rows[i], :]. Used for [CLS]
/// pooling and for collecting masked positions in the MLM head.
Variable gather_rows(const Variable& x, const std::vector<int64_t>& rows);

// ---- embedding ----
/// Gather rows of `table` ([V, h]) at `ids` (values in [0, V)); output
/// [ids.size(), h] reshaped to `out_prefix` + [h] by the caller if needed.
Variable embedding(const Variable& table, const std::vector<int64_t>& ids);

// ---- losses (all return scalars, mean-reduced) ----
/// Softmax cross entropy: logits [N, C], labels in [0, C).
Variable softmax_cross_entropy(const Variable& logits,
                               const std::vector<int64_t>& labels);
/// Same but ignoring positions with label == ignore_index (MLM loss).
Variable softmax_cross_entropy_masked(const Variable& logits,
                                      const std::vector<int64_t>& labels,
                                      int64_t ignore_index);
Variable mse_loss(const Variable& pred, const tensor::Tensor& target);

// ---- custom-op escape hatch ----
/// Unary op with caller-supplied forward value and vjp. `vjp(grad_out,
/// input_value)` returns the gradient w.r.t. the input. This is how the
/// compression operators (Top-K masks, quantization straight-through) plug
/// into the tape without autograd knowing about them.
Variable custom_unary(
    const Variable& input, tensor::Tensor output_value,
    std::function<tensor::Tensor(const tensor::Tensor& grad_out,
                                 const tensor::Tensor& input_value)> vjp,
    std::string op_name);

}  // namespace actcomp::autograd
