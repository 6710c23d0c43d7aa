#include "compress/settings.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "compress/autoencoder.h"
#include "compress/identity.h"
#include "compress/quantize.h"
#include "compress/randomk.h"
#include "compress/topk.h"
#include "tensor/check.h"

namespace actcomp::compress {

namespace {

// The paper's Table 1, one row per Setting in enum order. `ref_code` is the
// AE encoder dim at h = 1024 that a row calibrates against; `same_comm`
// marks the sparse rows matched to the AE's communication cost rather than
// its compression ratio.
struct Row {
  const char* label;
  Family family;
  int64_t ref_code;
  bool same_comm;
  int bits;
};
constexpr Row kTable1[] = {
    {"w/o", Family::kNone, 0, false, 0},
    {"A1", Family::kAutoencoder, kRefCodeA1, false, 0},
    {"A2", Family::kAutoencoder, kRefCodeA2, false, 0},
    {"T1", Family::kTopK, kRefCodeA1, true, 0},
    {"T2", Family::kTopK, kRefCodeA2, true, 0},
    {"T3", Family::kTopK, kRefCodeA1, false, 0},
    {"T4", Family::kTopK, kRefCodeA2, false, 0},
    {"R1", Family::kRandomK, kRefCodeA1, true, 0},
    {"R2", Family::kRandomK, kRefCodeA2, true, 0},
    {"R3", Family::kRandomK, kRefCodeA1, false, 0},
    {"R4", Family::kRandomK, kRefCodeA2, false, 0},
    {"Q1", Family::kQuantize, 0, false, 2},
    {"Q2", Family::kQuantize, 0, false, 4},
    {"Q3", Family::kQuantize, 0, false, 8},
};
static_assert(std::size(kTable1) == static_cast<size_t>(Setting::kQ3) + 1);

const Row& row(Setting s) {
  const auto i = static_cast<size_t>(s);
  ACTCOMP_ASSERT(i < std::size(kTable1), "unreachable setting enum");
  return kTable1[i];
}

}  // namespace

std::string setting_label(Setting s) { return row(s).label; }

Family family(Setting s) { return row(s).family; }

std::optional<Setting> parse_setting(const std::string& label) {
  for (Setting s : all_settings()) {
    if (setting_label(s) == label) return s;
  }
  return std::nullopt;
}

const std::vector<Setting>& all_settings() {
  static const std::vector<Setting> kAll = {
      Setting::kBaseline, Setting::kA1, Setting::kA2, Setting::kT1,
      Setting::kT2,       Setting::kT3, Setting::kT4, Setting::kR1,
      Setting::kR2,       Setting::kR3, Setting::kR4, Setting::kQ1,
      Setting::kQ2,       Setting::kQ3};
  return kAll;
}

const std::vector<Setting>& main_settings() {
  static const std::vector<Setting> kMain = {
      Setting::kBaseline, Setting::kA1, Setting::kA2, Setting::kT1,
      Setting::kT2,       Setting::kT3, Setting::kT4, Setting::kR1,
      Setting::kR2,       Setting::kR3, Setting::kR4, Setting::kQ1,
      Setting::kQ2};
  return kMain;
}

double sparse_fraction(Setting s) {
  const Row& r = row(s);
  ACTCOMP_CHECK(r.family == Family::kTopK || r.family == Family::kRandomK,
                "setting " << r.label << " is not a sparsification setting");
  const double ratio =
      static_cast<double>(r.ref_code) / static_cast<double>(kRefHidden);
  return r.same_comm
             ? ratio * 2.0 / static_cast<double>(kSparseBytesPerElement)
             : ratio;
}

int64_t kept_count(double fraction, int64_t numel) {
  if (numel == 0) return 0;
  const auto k = static_cast<int64_t>(
      std::llround(fraction * static_cast<double>(numel)));
  return std::clamp<int64_t>(k, 1, numel);
}

int64_t ae_code_size(Setting s, int64_t hidden) {
  const Row& r = row(s);
  ACTCOMP_CHECK(r.family == Family::kAutoencoder,
                "setting " << r.label << " is not an AE setting");
  ACTCOMP_CHECK(hidden >= 2, "hidden size too small for AE: " << hidden);
  const double scaled = static_cast<double>(r.ref_code) *
                        static_cast<double>(hidden) /
                        static_cast<double>(kRefHidden);
  return std::clamp<int64_t>(static_cast<int64_t>(std::llround(scaled)), 1,
                             hidden - 1);
}

int quant_bits(Setting s) {
  const Row& r = row(s);
  ACTCOMP_CHECK(r.family == Family::kQuantize,
                "setting " << r.label << " is not a quantization setting");
  return r.bits;
}

int64_t wire_bytes(Setting s, int64_t numel, int64_t hidden) {
  ACTCOMP_CHECK(numel >= 0 && hidden > 0,
                "bad wire_bytes shape: numel " << numel << ", hidden " << hidden);
  const int64_t rows = numel / hidden;
  switch (family(s)) {
    case Family::kNone:
      return numel * 2;  // fp16 values
    case Family::kAutoencoder:
      return rows * ae_code_size(s, hidden) * 2;  // fp16 codes
    case Family::kTopK:
    case Family::kRandomK:
      return kept_count(sparse_fraction(s), numel) * kSparseBytesPerElement;
    case Family::kQuantize:
      // Packed codes, then an fp16 (lo, scale) pair per row.
      return (numel * quant_bits(s) + 7) / 8 + rows * 4;
  }
  ACTCOMP_ASSERT(false, "unreachable setting family");
}

CompressorPtr make_compressor(Setting setting, int64_t hidden,
                              tensor::Generator& gen) {
  switch (family(setting)) {
    case Family::kNone:
      return std::make_unique<IdentityCompressor>();
    case Family::kAutoencoder:
      return std::make_unique<AutoencoderCompressor>(
          hidden, ae_code_size(setting, hidden), gen);
    case Family::kTopK:
      return std::make_unique<TopKCompressor>(sparse_fraction(setting));
    case Family::kRandomK:
      return std::make_unique<RandomKCompressor>(
          sparse_fraction(setting), static_cast<uint64_t>(gen.randint(1, 1u << 30)));
    case Family::kQuantize:
      return std::make_unique<QuantizeCompressor>(quant_bits(setting));
  }
  ACTCOMP_ASSERT(false, "unreachable setting family");
}

}  // namespace actcomp::compress
