#include "tensor/random.h"

#include <cmath>

#include "tensor/check.h"

namespace actcomp::tensor {

Tensor Generator::normal(Shape shape, float mean, float stddev) {
  Tensor t(std::move(shape));
  std::normal_distribution<float> dist(mean, stddev);
  for (float& v : t.data()) v = dist(engine_);
  return t;
}

Tensor Generator::uniform(Shape shape, float lo, float hi) {
  ACTCOMP_CHECK(lo <= hi, "uniform bounds inverted: [" << lo << ", " << hi << ")");
  Tensor t(std::move(shape));
  std::uniform_real_distribution<float> dist(lo, hi);
  for (float& v : t.data()) v = dist(engine_);
  return t;
}

int64_t Generator::randint(int64_t lo, int64_t hi) {
  ACTCOMP_CHECK(lo <= hi, "randint bounds inverted: [" << lo << ", " << hi << "]");
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

float Generator::rand_float(float lo, float hi) {
  std::uniform_real_distribution<float> dist(lo, hi);
  return dist(engine_);
}

float Generator::rand_normal(float mean, float stddev) {
  std::normal_distribution<float> dist(mean, stddev);
  return dist(engine_);
}

bool Generator::bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

std::vector<int64_t> Generator::sample_without_replacement(int64_t n, int64_t k) {
  ACTCOMP_CHECK(k >= 0 && k <= n,
                "cannot sample " << k << " distinct values from [0, " << n << ")");
  // Partial Fisher–Yates on a sparse permutation: O(k) time and space even for
  // huge n (activation tensors have millions of elements). Displaced positions
  // live in a flat open-addressing table, linear probing over a power-of-two
  // count of at least 2k slots, so it is never more than half full. A slot
  // holds a position (-1 when empty) and the value now at that position.
  struct Slot {
    int64_t pos = -1;
    int64_t value = 0;
  };
  int log2_slots = 1;
  while ((uint64_t{1} << log2_slots) < 2 * static_cast<uint64_t>(k)) ++log2_slots;
  const uint64_t slot_mask = (uint64_t{1} << log2_slots) - 1;
  std::vector<Slot> slots(static_cast<size_t>(slot_mask + 1));
  const auto slot_of = [&](int64_t pos) -> Slot& {
    // Fibonacci hashing: the top bits of pos times 2^64 / phi.
    uint64_t h =
        (static_cast<uint64_t>(pos) * 0x9E3779B97F4A7C15ull) >> (64 - log2_slots);
    while (slots[h].pos != -1 && slots[h].pos != pos) h = (h + 1) & slot_mask;
    return slots[h];
  };
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(k));
  for (int64_t i = 0; i < k; ++i) {
    const int64_t j = randint(i, n - 1);
    Slot& sj = slot_of(j);
    const int64_t vj = sj.pos == j ? sj.value : j;
    const Slot& si = slot_of(i);
    const int64_t vi = si.pos == i ? si.value : i;
    out.push_back(vj);
    sj = Slot{j, vi};
  }
  return out;
}

std::string Generator::state() const {
  std::ostringstream os;
  os << engine_;
  return os.str();
}

void Generator::set_state(const std::string& s) {
  std::istringstream is(s);
  std::mt19937_64 restored;
  is >> restored;
  ACTCOMP_CHECK(static_cast<bool>(is),
                "malformed RNG state string (" << s.size() << " bytes)");
  engine_ = restored;
}

Tensor xavier_uniform(Generator& gen, Shape shape, int64_t fan_in, int64_t fan_out) {
  ACTCOMP_CHECK(fan_in > 0 && fan_out > 0, "xavier fan dims must be positive");
  const float bound =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return gen.uniform(std::move(shape), -bound, bound);
}

}  // namespace actcomp::tensor
