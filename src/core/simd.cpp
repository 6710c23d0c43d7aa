#include "core/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace actcomp::core {

namespace {

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
SimdIsa probe_host() {
  // The AVX2 tier also uses F16C for the fp16 kernels and FMA for the
  // GEMM tile, so all three must be present before we leave scalar;
  // AVX-512 additionally needs the foundation subset (the kernels use no
  // BW/DQ/VL instructions).
  if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("f16c") ||
      !__builtin_cpu_supports("fma")) {
    return SimdIsa::kScalar;
  }
  if (__builtin_cpu_supports("avx512f")) return SimdIsa::kAvx512;
  return SimdIsa::kAvx2;
}
#else
SimdIsa probe_host() { return SimdIsa::kScalar; }
#endif

struct Config {
  SimdIsa detected;
  SimdIsa initial;
  const char* override_value;
};

const Config& config() {
  static const Config cfg = [] {
    Config c;
    c.detected = probe_host();
    c.initial = c.detected;
    c.override_value = "";
    if (const char* env = std::getenv("ACTCOMP_SIMD");
        env != nullptr && *env != '\0') {
      c.override_value = env;
      if (std::strcmp(env, "scalar") == 0) {
        c.initial = SimdIsa::kScalar;
      } else if (std::strcmp(env, "avx2") == 0) {
        c.initial = std::min(SimdIsa::kAvx2, c.detected);
      } else if (std::strcmp(env, "avx512") == 0) {
        c.initial = std::min(SimdIsa::kAvx512, c.detected);
      } else {
        std::fprintf(stderr,
                     "actcomp: ignoring unknown ACTCOMP_SIMD='%s' "
                     "(want scalar|avx2|avx512)\n",
                     env);
      }
    }
    return c;
  }();
  return cfg;
}

std::atomic<int>& active_tier() {
  static std::atomic<int> tier{static_cast<int>(config().initial)};
  return tier;
}

}  // namespace

SimdIsa simd_isa() {
  return static_cast<SimdIsa>(active_tier().load(std::memory_order_relaxed));
}

SimdIsa detected_simd_isa() { return config().detected; }

void set_simd_isa(SimdIsa isa) {
  active_tier().store(static_cast<int>(std::min(isa, config().detected)),
                      std::memory_order_relaxed);
}

const char* simd_isa_name(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar: return "scalar";
    case SimdIsa::kAvx2: return "avx2";
    case SimdIsa::kAvx512: return "avx512";
  }
  return "scalar";
}

const char* simd_override() { return config().override_value; }

}  // namespace actcomp::core
