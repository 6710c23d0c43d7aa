// Deterministic random number generation for reproducible experiments.
//
// Every randomized component in the library takes a Generator& so that a
// single seed at the experiment driver reproduces the whole run — the same
// discipline the paper needed to compare 160+ settings fairly.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "tensor/tensor.h"

namespace actcomp::tensor {

class Generator {
 public:
  explicit Generator(uint64_t seed) : engine_(seed) {}

  /// i.i.d. N(mean, stddev^2).
  Tensor normal(Shape shape, float mean = 0.0f, float stddev = 1.0f);
  /// i.i.d. U[lo, hi).
  Tensor uniform(Shape shape, float lo = 0.0f, float hi = 1.0f);
  /// Integers in [lo, hi], uniformly.
  int64_t randint(int64_t lo, int64_t hi);
  float rand_float(float lo = 0.0f, float hi = 1.0f);
  float rand_normal(float mean = 0.0f, float stddev = 1.0f);
  bool bernoulli(double p);

  /// k distinct indices sampled uniformly from [0, n) (partial Fisher–Yates).
  std::vector<int64_t> sample_without_replacement(int64_t n, int64_t k);

  /// Serialized engine state (the mt19937_64 textual form, which the
  /// standard specifies exactly), for checkpointing: restoring it resumes
  /// the stream at the same cursor, so save -> restore -> draw produces the
  /// bit-identical sequence a straight run would. Distributions carry no
  /// cross-call state here (each draw constructs its own), so the engine
  /// state is the whole cursor.
  std::string state() const;
  /// Inverse of state(); throws std::invalid_argument on a malformed string.
  void set_state(const std::string& s);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Xavier/Glorot-uniform initialization for a [fan_in, fan_out] weight.
Tensor xavier_uniform(Generator& gen, Shape shape, int64_t fan_in, int64_t fan_out);

}  // namespace actcomp::tensor
