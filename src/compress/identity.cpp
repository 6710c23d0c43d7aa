#include "compress/identity.h"

#include "compress/wire.h"
#include "tensor/check.h"
#include "tensor/fp16.h"

namespace actcomp::compress {

CompressedMessage IdentityCompressor::do_encode(const tensor::Tensor& x) {
  CompressedMessage msg;
  msg.shape_dims = x.shape().dims();
  msg.body.reserve(static_cast<size_t>(x.numel()) * 2);
  wire::append_fp16(msg.body, x);
  return msg;
}

tensor::Tensor IdentityCompressor::do_decode(const CompressedMessage& msg) const {
  tensor::Shape shape{msg.shape_dims};
  // Exactly 2·numel bytes, compared by division so a forged shape cannot
  // overflow the product, before anything is allocated.
  ACTCOMP_CHECK(msg.body.size() % 2 == 0 &&
                    msg.body.size() / 2 == static_cast<size_t>(shape.numel()),
                "w/o wire message has " << msg.body.size()
                                        << " body bytes, want 2 x " << shape.numel());
  size_t off = 0;
  std::vector<float> vals = wire::read_fp16(msg.body, off, shape.numel());
  return tensor::Tensor(shape, std::move(vals));
}

tensor::Tensor IdentityCompressor::round_trip(const tensor::Tensor& x) {
  return tensor::fp16_round(x);
}

WireFormat IdentityCompressor::wire_size(const tensor::Shape& shape) const {
  return WireFormat{.payload_bytes = fp16_bytes(shape), .metadata_bytes = 0};
}

}  // namespace actcomp::compress
