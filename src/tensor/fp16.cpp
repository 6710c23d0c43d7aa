#include "tensor/fp16.h"

#include "core/threadpool.h"
#include "tensor/kernels/kernel_table.h"

namespace actcomp::tensor {

// The conversion is per element, so the bytes are the same for any chunking.
using core::kEwGrain;

Tensor fp16_round(const Tensor& t) {
  Tensor out(t.shape());
  const float* src = t.data().data();
  float* dst = out.data().data();
  const kernels::KernelTable& kt = kernels::active_kernels();
  core::parallel_for(0, t.numel(), kEwGrain, [&](int64_t b, int64_t e) {
    kt.fp16_round_trip(src + b, dst + b, e - b);
  });
  return out;
}

}  // namespace actcomp::tensor
