// Compressor: the common interface over the paper's §3.1 algorithm classes.
//
// Every algorithm provides three coupled views that MUST agree, because the
// two execution planes of this reproduction consume different ones:
//   * encode()/decode() — a real serialized wire message (byte-exact), used
//     by unit tests and by anyone adopting the library for real transport;
//   * apply()           — the differentiable lossy round-trip inserted into
//     the training tape (accuracy experiments);
//   * wire_size()       — closed-form message-size accounting, asserted in
//     tests to equal the byte size encode() actually produces (and the
//     compress::wire_bytes() count the throughput simulator charges).
//
// Elements on the wire are fp16 (the paper trains BERT-Large in fp16);
// sparse indices are int32; quantized payloads are bit-packed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"

namespace actcomp::compress {

/// Byte accounting for one compressed activation message.
struct WireFormat {
  int64_t payload_bytes = 0;   ///< the (compressed) values themselves
  int64_t metadata_bytes = 0;  ///< indices / scales / header
  int64_t total_bytes() const { return payload_bytes + metadata_bytes; }
};

/// Uncompressed fp16 bytes for a tensor of this shape (the baseline message).
int64_t fp16_bytes(const tensor::Shape& shape);

/// A serialized message: header (shape) + algorithm-specific body.
struct CompressedMessage {
  std::vector<int64_t> shape_dims;
  std::vector<std::byte> body;

  int64_t body_bytes() const { return static_cast<int64_t>(body.size()); }
};

class Compressor {
 public:
  virtual ~Compressor() = default;

  /// Short identifier, e.g. "topk(f=0.016)".
  virtual std::string name() const = 0;

  /// Serialize `x` into a wire message. Non-const: Random-K consumes RNG
  /// state, error-feedback compressors update their residual. Non-virtual:
  /// this is the observability choke point — it opens the compress.encode
  /// profiler zone, bumps the bytes-on-wire counters, and dispatches to the
  /// subclass's do_encode(). Wrapping compressors (error feedback, hybrid)
  /// that call an inner compressor's encode() simply nest one zone deeper.
  CompressedMessage encode(const tensor::Tensor& x);

  /// Reconstruct the (lossy) tensor a receiver would see. Instrumented
  /// wrapper over do_decode(), like encode().
  tensor::Tensor decode(const CompressedMessage& msg) const;

  /// decode(encode(x)) without paying for serialization; default does exactly
  /// that, subclasses override with a fused path.
  virtual tensor::Tensor round_trip(const tensor::Tensor& x);

  /// Differentiable lossy round-trip for the training tape. Defaults to a
  /// custom op whose backward is straight-through (identity): the paper's
  /// PyTorch integration backpropagates through the decompressed tensor as
  /// if compression were identity. The sparsifiers override it to mask the
  /// gradient with the forward's own selection; the autoencoder, with a
  /// fully differentiable graph.
  virtual autograd::Variable apply(const autograd::Variable& x);

  /// Closed-form message size for an input of `shape`. Must equal the body
  /// size encode() produces for that shape (tests enforce this).
  virtual WireFormat wire_size(const tensor::Shape& shape) const = 0;

  /// True if the encoded message is a single dense summable tensor, so tensor
  /// parallelism can keep using all-reduce (§3.2). Sparse and quantized
  /// formats return false and force the all-gather fallback.
  virtual bool allreduce_compatible() const = 0;

  /// Trainable parameters (empty for everything except the autoencoder).
  virtual std::vector<autograd::Variable> parameters() { return {}; }

 protected:
  /// Algorithm-specific serialization; called only through encode()/decode()
  /// so byte accounting can never be bypassed.
  virtual CompressedMessage do_encode(const tensor::Tensor& x) = 0;
  virtual tensor::Tensor do_decode(const CompressedMessage& msg) const = 0;
};

using CompressorPtr = std::unique_ptr<Compressor>;

}  // namespace actcomp::compress
