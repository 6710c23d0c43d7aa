#include "compress/compressor.h"

#include "autograd/functions.h"
#include "obs/profiler.h"
#include "obs/registry.h"

namespace actcomp::compress {

int64_t fp16_bytes(const tensor::Shape& shape) { return shape.numel() * 2; }

CompressedMessage Compressor::encode(const tensor::Tensor& x) {
  ACTCOMP_PROFILE("compress.encode");
  CompressedMessage msg = do_encode(x);
  static obs::Counter& calls =
      obs::Registry::instance().counter("compress.encode.calls");
  static obs::Counter& bytes_in =
      obs::Registry::instance().counter("compress.encode.bytes_in_fp16");
  static obs::Counter& bytes_out =
      obs::Registry::instance().counter("compress.encode.bytes_out");
  calls.add();
  bytes_in.add(fp16_bytes(x.shape()));
  bytes_out.add(msg.body_bytes());
  // Cumulative wire ratio over the whole run so far (bytes_out / bytes_in);
  // nested encodes (error feedback, hybrid) double-count by design — the
  // outermost message is what actually travels, and its bytes dominate.
  static obs::Gauge& ratio =
      obs::Registry::instance().gauge("compress.wire_ratio");
  const double in = static_cast<double>(bytes_in.value());
  if (in > 0) ratio.set(static_cast<double>(bytes_out.value()) / in);
  return msg;
}

tensor::Tensor Compressor::decode(const CompressedMessage& msg) const {
  ACTCOMP_PROFILE("compress.decode");
  static obs::Counter& calls =
      obs::Registry::instance().counter("compress.decode.calls");
  calls.add();
  return do_decode(msg);
}

tensor::Tensor Compressor::round_trip(const tensor::Tensor& x) {
  return decode(encode(x));
}

autograd::Variable Compressor::apply(const autograd::Variable& x) {
  return autograd::custom_unary(
      x, round_trip(x.value()),
      [](const tensor::Tensor& g, const tensor::Tensor&) { return g; },
      "compress:" + name());
}

}  // namespace actcomp::compress
