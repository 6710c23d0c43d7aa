#include "compress/autoencoder.h"

#include <sstream>

#include "autograd/functions.h"
#include "compress/wire.h"
#include "tensor/check.h"
#include "tensor/fp16.h"
#include "tensor/ops.h"

namespace actcomp::compress {

AutoencoderCompressor::AutoencoderCompressor(int64_t hidden, int64_t code,
                                             tensor::Generator& gen)
    : hidden_(hidden), code_(code) {
  ACTCOMP_CHECK(hidden > 0 && code > 0 && code < hidden,
                "autoencoder needs 0 < code < hidden, got code=" << code
                                                                 << " hidden=" << hidden);
  w_enc_ = autograd::Variable::leaf(
      tensor::xavier_uniform(gen, tensor::Shape{hidden, code}, hidden, code),
      /*requires_grad=*/true);
  w_dec_ = autograd::Variable::leaf(
      tensor::xavier_uniform(gen, tensor::Shape{code, hidden}, code, hidden),
      /*requires_grad=*/true);
}

std::string AutoencoderCompressor::name() const {
  std::ostringstream os;
  os << "ae(h=" << hidden_ << ",c=" << code_ << ')';
  return os.str();
}

namespace {
tensor::Shape code_shape(const tensor::Shape& in, int64_t code) {
  std::vector<int64_t> dims = in.dims();
  dims.back() = code;
  return tensor::Shape(dims);
}
}  // namespace

CompressedMessage AutoencoderCompressor::do_encode(const tensor::Tensor& x) {
  ACTCOMP_CHECK(x.dim(-1) == hidden_,
                "autoencoder expects last dim " << hidden_ << ", got "
                                                << x.shape().str());
  const int64_t rows = x.numel() / hidden_;
  const tensor::Tensor flat = x.reshape(tensor::Shape{rows, hidden_});
  const tensor::Tensor compressed = tensor::matmul2d(flat, w_enc_.value());
  CompressedMessage msg;
  msg.shape_dims = x.shape().dims();
  msg.body.reserve(static_cast<size_t>(compressed.numel()) * 2);
  wire::append_fp16(msg.body, compressed);
  return msg;
}

tensor::Tensor AutoencoderCompressor::do_decode(const CompressedMessage& msg) const {
  tensor::Shape shape{msg.shape_dims};
  ACTCOMP_CHECK(shape.rank() >= 1 && shape.dim(-1) == hidden_,
                "autoencoder wire message has shape " << shape.str()
                                                      << ", want last dim " << hidden_);
  const int64_t rows = shape.numel() / hidden_;
  // Exactly 2·rows·code bytes, compared by division so a forged shape cannot
  // overflow the product, before anything is allocated.
  const size_t values = msg.body.size() / 2;
  const auto code = static_cast<size_t>(code_);
  ACTCOMP_CHECK(msg.body.size() % 2 == 0 && values % code == 0 &&
                    values / code == static_cast<size_t>(rows),
                "autoencoder wire message has " << msg.body.size()
                                                << " body bytes, want 2 x " << rows
                                                << " x " << code_);
  size_t off = 0;
  std::vector<float> vals = wire::read_fp16(msg.body, off, rows * code_);
  const tensor::Tensor compressed(tensor::Shape{rows, code_}, std::move(vals));
  return tensor::matmul2d(compressed, w_dec_.value()).reshape(shape);
}

tensor::Tensor AutoencoderCompressor::round_trip(const tensor::Tensor& x) {
  const int64_t rows = x.numel() / hidden_;
  const tensor::Tensor flat = x.reshape(tensor::Shape{rows, hidden_});
  const tensor::Tensor code =
      tensor::fp16_round(tensor::matmul2d(flat, w_enc_.value()));
  return tensor::matmul2d(code, w_dec_.value()).reshape(x.shape());
}

autograd::Variable AutoencoderCompressor::apply(const autograd::Variable& x) {
  ACTCOMP_CHECK(x.value().dim(-1) == hidden_,
                "autoencoder expects last dim " << hidden_ << ", got "
                                                << x.value().shape().str());
  autograd::Variable code = autograd::matmul(x, w_enc_);
  // The code crosses the wire in fp16; model that rounding with a
  // straight-through custom op so it is visible to the task loss.
  code = autograd::custom_unary(
      code, tensor::fp16_round(code.value()),
      [](const tensor::Tensor& g, const tensor::Tensor&) { return g; },
      "fp16_wire_round");
  return autograd::matmul(code, w_dec_);
}

WireFormat AutoencoderCompressor::wire_size(const tensor::Shape& shape) const {
  ACTCOMP_CHECK(shape.dim(-1) == hidden_,
                "autoencoder wire_size: last dim " << shape.dim(-1) << " != "
                                                   << hidden_);
  return WireFormat{
      .payload_bytes = code_shape(shape, code_).numel() * 2,
      .metadata_bytes = 0};
}

std::vector<autograd::Variable> AutoencoderCompressor::parameters() {
  return {w_enc_, w_dec_};
}

void AutoencoderCompressor::set_weights(const tensor::Tensor& enc,
                                        const tensor::Tensor& dec) {
  ACTCOMP_CHECK(enc.shape() == w_enc_.value().shape(),
                "encoder weight shape mismatch: " << enc.shape().str());
  ACTCOMP_CHECK(dec.shape() == w_dec_.value().shape(),
                "decoder weight shape mismatch: " << dec.shape().str());
  w_enc_.mutable_value() = enc.clone();
  w_dec_.mutable_value() = dec.clone();
}

}  // namespace actcomp::compress
