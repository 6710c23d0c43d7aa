// CompressionPlan: which layers are compressed, with which algorithm.
//
// The paper's default compresses the last 12 of BERT-Large's 24 layers
// (§4.1); §4.5 sweeps both the number of compressed layers (Fig. 4a) and the
// location of a fixed-size compressed window (Fig. 4b). A plan captures that
// choice independent of model scale, as a contiguous [first, first+count)
// window of layer indices.
#pragma once

#include <cstdint>

#include "compress/settings.h"

namespace actcomp::core {

struct CompressionPlan {
  compress::Setting setting = compress::Setting::kBaseline;
  int64_t first_layer = 0;  ///< first compressed layer (inclusive)
  int64_t count = 0;        ///< number of consecutive compressed layers

  /// Compress the last `n` of `total` layers (the paper's default uses
  /// n = total / 2).
  static CompressionPlan last_n(compress::Setting s, int64_t total, int64_t n);
  /// The paper's §4.1 default: last half of the network.
  static CompressionPlan paper_default(compress::Setting s, int64_t total);
  /// An explicit window [first, first + n) (Fig. 4b location sweeps).
  static CompressionPlan window(compress::Setting s, int64_t first, int64_t n);
  /// No compression anywhere.
  static CompressionPlan none();

  bool compresses(int64_t layer) const {
    return setting != compress::Setting::kBaseline && layer >= first_layer &&
           layer < first_layer + count;
  }
};

}  // namespace actcomp::core
