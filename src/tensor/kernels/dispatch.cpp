// Wires the per-ISA kernel tables to the runtime tier selection in
// core/simd.cpp. Tiers the build could not compile (non-x86 target, old
// compiler) alias the widest available narrower tier, so indexing by
// core::simd_isa() is always valid — and core/simd.cpp already clamps the
// selected tier to what the host supports. kernels_for_tier clamps an
// explicit tier to the host's detected tier the same way.
#include "tensor/kernels/kernel_table.h"

#include <algorithm>

#include "core/simd.h"
#include "tensor/kernels/tiers.h"

namespace actcomp::tensor::kernels {

namespace {

struct TierTables {
  const KernelTable* tables[3];

  TierTables() {
    tables[0] = &scalar_kernels();
    tables[1] = avx2_kernels() ? avx2_kernels() : tables[0];
    tables[2] = avx512_kernels() ? avx512_kernels() : tables[1];
  }
};

const TierTables& tier_tables() {
  static const TierTables t;
  return t;
}

}  // namespace

const KernelTable& kernels_for_tier(int tier) {
  const int i = std::clamp(tier, 0, static_cast<int>(core::detected_simd_isa()));
  return *tier_tables().tables[i];
}

const KernelTable& active_kernels() {
  return *tier_tables().tables[static_cast<int>(core::simd_isa())];
}

}  // namespace actcomp::tensor::kernels
