// Machine-readable kernel benchmark: times the parallel compute core
// (blocked GEMM, the small in-place GEMMs, the packed edge and the strided
// operands per tier, GELU, compressor encode/decode, one end-to-end
// fine-tune step) across thread counts, and the profiler's overhead on that
// step. Output
// is a canonical RunReport document (actcomp.run_report.v1, see
// obs/report.h): each measurement is one entry of the "records" array
// carrying {op, shape, threads, ns_op, gb_s} plus op-specific extras
// (gflops, speedup_vs_seed).
// The checked-in baseline lives at bench/baselines/BENCH_kernels.json;
// README's Performance table is derived from it.
//
// The GEMM baseline is a verbatim copy of the seed repo's matmul2d loop
// (including its zero-skip branch), compiled at this file's default
// optimization level — "speedup_vs_seed" is measured against it.
//
//   $ ./kernels_bench [--quick] [out.json]
//
// --quick trims the shape sweep to a few-second run for CI (ci.sh bench);
// the full sweep is what baselines are regenerated from.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "autograd/functions.h"
#include "compress/lossless.h"
#include "compress/quantize.h"
#include "compress/randomk.h"
#include "compress/topk.h"
#include "compress/wire.h"
#include "core/simd.h"
#include "core/threadpool.h"
#include "nn/bert.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "tensor/kernels/kernel_table.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "train/optimizer.h"

namespace ts = actcomp::tensor;
namespace ag = actcomp::autograd;
namespace nn = actcomp::nn;
namespace cp = actcomp::compress;
namespace core = actcomp::core;
namespace obs = actcomp::obs;

namespace {

using Clock = std::chrono::steady_clock;

// The seed repo's GEMM, kept as the reference point for speedup numbers.
void seed_matmul(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    float* c_row = c + i * n;
    const float* a_row = a + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = a_row[kk];
      if (av == 0.0f) continue;
      const float* b_row = b + kk * n;
      for (int64_t j = 0; j < n; ++j) c_row[j] += av * b_row[j];
    }
  }
}

// Best-of-`reps` wall time of fn(), in seconds.
template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
    if (dt < best) best = dt;
  }
  return best;
}

int g_emitted = 0;

void emit(const std::string& op, const std::string& shape, int threads,
          double ns_op, double gb_s, double gflops = -1.0,
          double speedup_vs_seed = -1.0) {
  obs::json::Value r = obs::json::Value::object();
  r.set("op", op);
  r.set("shape", shape);
  r.set("threads", threads);
  r.set("ns_op", ns_op);
  r.set("gb_s", gb_s);
  if (gflops >= 0.0) r.set("gflops", gflops);
  if (speedup_vs_seed >= 0.0) r.set("speedup_vs_seed", speedup_vs_seed);
  obs::RunReport::current()->add_record(std::move(r));
  ++g_emitted;
}

void bench_matmul(int64_t m, int64_t k, int64_t n, bool run_seed) {
  ts::Generator gen(99);
  const ts::Tensor a = gen.normal(ts::Shape{m, k});
  const ts::Tensor b = gen.normal(ts::Shape{k, n});
  const double flops = 2.0 * static_cast<double>(m) * k * n;
  const double bytes = 4.0 * (static_cast<double>(m) * k +
                              static_cast<double>(k) * n +
                              static_cast<double>(m) * n);
  const int reps = flops > 1e10 ? 1 : 3;
  char shape[64];
  std::snprintf(shape, sizeof(shape), "%lldx%lldx%lld",
                static_cast<long long>(m), static_cast<long long>(k),
                static_cast<long long>(n));

  double seed_t = -1.0;
  if (run_seed) {
    ts::Tensor c{ts::Shape{m, n}};
    seed_t = best_of(reps, [&] {
      seed_matmul(a.data().data(), b.data().data(), c.data().data(), m, k, n);
    });
    emit("matmul2d_seed", shape, 1, seed_t * 1e9, bytes / seed_t / 1e9,
         flops / seed_t / 1e9);
    std::printf("matmul2d_seed %-18s t=1  %8.1f ms  %6.1f GFLOP/s\n", shape,
                seed_t * 1e3, flops / seed_t / 1e9);
  }
  for (int threads : {1, 2, 4}) {
    core::set_num_threads(threads);
    const double t = best_of(reps, [&] { ts::matmul2d(a, b); });
    emit("matmul2d", shape, threads, t * 1e9, bytes / t / 1e9, flops / t / 1e9,
         seed_t > 0 ? seed_t / t : -1.0);
    std::printf("matmul2d      %-18s t=%d  %8.1f ms  %6.1f GFLOP/s%s\n", shape,
                threads, t * 1e3, flops / t / 1e9,
                seed_t > 0
                    ? (" (" + std::to_string(seed_t / t).substr(0, 5) + "x seed)")
                          .c_str()
                    : "");
  }
  core::set_num_threads(1);
}

// One matmul2d record per SIMD tier the host supports, with the tier forced
// via core::set_simd_isa. Op names carry the tier ("matmul2d_avx2"), so the
// perf gate compares each tier against its own baseline and a dispatch
// regression (e.g. silently landing in the scalar tier) shows up directly.
void bench_matmul_tiers(int64_t m, int64_t k, int64_t n) {
  ts::Generator gen(99);
  const ts::Tensor a = gen.normal(ts::Shape{m, k});
  const ts::Tensor b = gen.normal(ts::Shape{k, n});
  const double flops = 2.0 * static_cast<double>(m) * k * n;
  const double bytes = 4.0 * (static_cast<double>(m) * k +
                              static_cast<double>(k) * n +
                              static_cast<double>(m) * n);
  char shape[64];
  std::snprintf(shape, sizeof(shape), "%lldx%lldx%lld",
                static_cast<long long>(m), static_cast<long long>(k),
                static_cast<long long>(n));
  const core::SimdIsa restore = core::simd_isa();
  for (int t = 0; t <= static_cast<int>(core::detected_simd_isa()); ++t) {
    const auto isa = static_cast<core::SimdIsa>(t);
    core::set_simd_isa(isa);
    const std::string op = std::string("matmul2d_") + core::simd_isa_name(isa);
    for (int threads : {1, 4}) {
      core::set_num_threads(threads);
      const double tsec = best_of(3, [&] { ts::matmul2d(a, b); });
      emit(op, shape, threads, tsec * 1e9, bytes / tsec / 1e9,
           flops / tsec / 1e9);
      std::printf("%-13s %-18s t=%d  %8.1f ms  %6.1f GFLOP/s\n", op.c_str(),
                  shape, threads, tsec * 1e3, flops / tsec / 1e9);
    }
  }
  core::set_simd_isa(restore);
  core::set_num_threads(1);
}

// Per-tier GEMMs called through each tier's gemm_into on preallocated
// buffers, as bench_table_tiers does, at t=1. `gemm_small_` records are the
// GEMMs at or below kSimpleGemmFlops, which the tile runs in place on the
// calling thread: decode's per-token projections (4 rows) and the attention
// products (32 batches, one head each); they never enter the pool, so a t=4
// record would measure nothing new. `gemm_edge_` is the `wire` autoencoder's
// 512x1024x50 encoder GEMM: packed, two k-blocks, and n ragged for every
// tier's tile width, so its partial panel runs on the edge block. The rest
// read an operand through strides: the two Linear-backward products, dW =
// Xᵀ G with A transposed (`gemm_at_`) and dX = G Wᵀ with B transposed, so
// packed (`gemm_bt_`), and decode's cached score product (`gemm_kcache_`),
// one head's query against 96 live positions of the KV cache's Kᵀ rows,
// which lie ldb = cap = 128 apart.
void bench_gemm_into_tiers() {
  namespace kn = ts::kernels;
  struct Case {
    const char* op;
    int64_t batches, m, k, n;
    bool trans_a = false, trans_b = false;
    int64_t ldb = 0;  ///< B's row stride when not transposed; 0 means n
  };
  const Case cases[] = {{"gemm_small_", 1, 4, 128, 128},
                        {"gemm_small_", 1, 4, 128, 512},
                        {"gemm_small_", 1, 4, 512, 128},
                        {"gemm_small_", 32, 64, 32, 64},
                        {"gemm_small_", 32, 64, 64, 32},
                        {"gemm_edge_", 1, 512, 1024, 50},
                        {"gemm_at_", 1, 128, 512, 128, true, false},
                        {"gemm_bt_", 1, 512, 128, 128, false, true},
                        {"gemm_kcache_", 1, 1, 32, 96, false, false, 128}};
  core::set_num_threads(1);
  ts::Generator gen(23);
  for (const Case& c : cases) {
    const int64_t ldb = c.ldb > 0 ? c.ldb : c.n;
    const int64_t rsa = c.trans_a ? 1 : c.k, csa = c.trans_a ? c.m : 1;
    const int64_t rsb = c.trans_b ? 1 : ldb, csb = c.trans_b ? c.k : 1;
    const int64_t b_size = c.trans_b ? c.n * c.k : c.k * ldb;
    const ts::Tensor a = gen.normal(ts::Shape{c.batches, c.m * c.k});
    const ts::Tensor b = gen.normal(ts::Shape{c.batches, b_size});
    std::vector<float> out(static_cast<size_t>(c.batches * c.m * c.n));
    const double macs = static_cast<double>(c.batches * c.m * c.k * c.n);
    const double bytes = 4.0 * static_cast<double>(c.batches) *
                         static_cast<double>(c.m * c.k + c.k * c.n + c.m * c.n);
    char shape[64];
    if (c.batches == 1) {
      std::snprintf(shape, sizeof(shape), "%lldx%lldx%lld",
                    static_cast<long long>(c.m), static_cast<long long>(c.k),
                    static_cast<long long>(c.n));
    } else {
      std::snprintf(shape, sizeof(shape), "%lldx%lldx%lldx%lld",
                    static_cast<long long>(c.batches),
                    static_cast<long long>(c.m), static_cast<long long>(c.k),
                    static_cast<long long>(c.n));
    }
    // ~16M multiply-adds per rep, so a rep is a few milliseconds.
    const int64_t iters =
        std::max<int64_t>(1, static_cast<int64_t>((1 << 24) / macs));
    for (int t = 0; t <= static_cast<int>(core::detected_simd_isa()); ++t) {
      const kn::KernelTable& kt = kn::kernels_for_tier(t);
      const double tsec = best_of(5, [&] {
                            for (int64_t it = 0; it < iters; ++it) {
                              for (int64_t i = 0; i < c.batches; ++i) {
                                kt.gemm_into(a.data().data() + i * c.m * c.k,
                                             rsa, csa,
                                             b.data().data() + i * b_size, rsb,
                                             csb, out.data() + i * c.m * c.n,
                                             c.n, c.m, c.k, c.n);
                              }
                            }
                          }) / static_cast<double>(iters);
      const std::string op = std::string(c.op) + kt.name;
      emit(op, shape, 1, tsec * 1e9, bytes / tsec / 1e9, 2.0 * macs / tsec / 1e9);
      std::printf("%-17s %-13s t=1  %8.2f us  %6.1f GFLOP/s\n", op.c_str(),
                  shape, tsec * 1e6, 2.0 * macs / tsec / 1e9);
    }
  }
}

// gelu and gelu_grad per SIMD tier, like bench_matmul_tiers: every tier
// runs the same polynomial source, so the records show what each tier's
// autovectorized copy is worth. GB/s counts one read and one write.
void bench_gelu_tiers() {
  ts::Generator gen(13);
  const ts::Tensor x = gen.normal(ts::Shape{8, 64, 512}, 0.0f, 2.0f);
  const double bytes = 8.0 * static_cast<double>(x.numel());
  const core::SimdIsa restore = core::simd_isa();
  for (int t = 0; t <= static_cast<int>(core::detected_simd_isa()); ++t) {
    const auto isa = static_cast<core::SimdIsa>(t);
    core::set_simd_isa(isa);
    for (const bool grad : {false, true}) {
      const std::string op =
          std::string(grad ? "gelu_grad_" : "gelu_") + core::simd_isa_name(isa);
      for (int threads : {1, 4}) {
        core::set_num_threads(threads);
        const double tsec =
            best_of(5, [&] { grad ? ts::gelu_grad(x) : ts::gelu(x); });
        emit(op, "8x64x512", threads, tsec * 1e9, bytes / tsec / 1e9);
        std::printf("%-16s %-15s t=%d  %8.3f ms  %6.2f GB/s\n", op.c_str(),
                    "8x64x512", threads, tsec * 1e3, bytes / tsec / 1e9);
      }
    }
  }
  core::set_simd_isa(restore);
  core::set_num_threads(1);
}

// Kernel-table entries per SIMD tier, called directly on preallocated
// buffers so the loop itself is timed, not the op's allocation or
// parallel_for: ew_add same-shape and with a [128] bias broadcast at
// decode's [4·128] and pretrain's [512·128] activations, the layernorm pair
// at [512, 128], row_max over softmax-length rows (4096 rows of 96, decode's
// longest score rows), row_minmax over the quantizer's [512, 1024] rows,
// the fp16 round trip over a [512·1024] wire tensor
// (memory-bound), and fp16 encode and decode over one 8192-element chunk,
// the unit the wire path's fp16 streams convert in (cache-resident). Each
// rep runs the entry over ~4M elements; a tier whose loop stops vectorizing
// drops several-fold. GB/s counts every operand read and output write once.
void bench_table_tiers() {
  namespace kn = ts::kernels;
  ts::Generator gen(19);
  const ts::Tensor x = gen.normal(ts::Shape{512 * 1024});
  const ts::Tensor bias = gen.normal(ts::Shape{128});
  const float* a = x.data().data();
  const float* b = a + 512 * 128;  // a second [512·128] operand
  std::vector<float> out(static_cast<size_t>(x.numel()));
  std::vector<float> mean(512), rstd(512);
  std::vector<uint16_t> half(8192);
  const auto time_entry = [](int64_t n, auto&& fn) {
    const int64_t iters = std::max<int64_t>(1, (int64_t{1} << 22) / n);
    return best_of(5, [&] {
             for (int64_t i = 0; i < iters; ++i) fn();
           }) / static_cast<double>(iters);
  };
  for (int t = 0; t <= static_cast<int>(core::detected_simd_isa()); ++t) {
    const kn::KernelTable& k = kn::kernels_for_tier(t);
    const auto record = [&](const char* entry, const char* shape, double bytes,
                            double tsec) {
      const std::string op = std::string(entry) + "_" + k.name;
      emit(op, shape, 1, tsec * 1e9, bytes / tsec / 1e9);
      std::printf("%-22s %-9s t=1  %10.3f us  %6.2f GB/s\n", op.c_str(), shape,
                  tsec * 1e6, bytes / tsec / 1e9);
    };
    for (const auto& [rows, shape] : {std::pair{int64_t{4}, "4x128"},
                                      std::pair{int64_t{512}, "512x128"}}) {
      const int64_t n = rows * 128;
      record("ew_add", shape, 12.0 * static_cast<double>(n),
             time_entry(n, [&] { k.ew_add(a, b, out.data(), 0, n, n); }));
      record("ew_add_bias", shape, 4.0 * static_cast<double>(2 * n + 128),
             time_entry(n, [&] {
               k.ew_add(a, bias.data().data(), out.data(), 0, n, 128);
             }));
    }
    const int64_t n = 512 * 128;
    record("rows_moments", "512x128", 4.0 * static_cast<double>(n + 2 * 512),
           time_entry(n, [&] {
             k.rows_moments(a, 0, 512, 128, 1e-5f, mean.data(), rstd.data());
           }));
    record("ln_xhat", "512x128", 4.0 * static_cast<double>(2 * n + 2 * 512),
           time_entry(n, [&] {
             k.ln_xhat(a, mean.data(), rstd.data(), out.data(), 0, 512, 128);
           }));
    record("row_max", "4096x96", 4.0 * (4096 * 96 + 4096),
           time_entry(4096 * 96, [&] {
             for (int64_t r = 0; r < 4096; ++r) out.data()[r] = k.row_max(a + r * 96, 96);
           }));
    record("row_minmax", "512x1024", 4.0 * (512 * 1024 + 2 * 512),
           time_entry(512 * 1024, [&] {
             for (int64_t r = 0; r < 512; ++r) {
               k.row_minmax(a + r * 1024, 1024, mean.data() + r, rstd.data() + r);
             }
           }));
    record("fp16_round_trip", "512x1024", 8.0 * static_cast<double>(x.numel()),
           time_entry(x.numel(), [&] {
             k.fp16_round_trip(a, out.data(), x.numel());
           }));
    constexpr int64_t kChunk = 8192;
    record("fp16_encode", "8192", 6.0 * kChunk,
           time_entry(kChunk, [&] { k.fp16_encode(a, half.data(), kChunk); }));
    record("fp16_decode", "8192", 6.0 * kChunk,
           time_entry(kChunk, [&] { k.fp16_decode(half.data(), out.data(), kChunk); }));
  }
}

template <typename C>
void bench_compressor(const char* label, C& c, const ts::Tensor& x) {
  const double in_bytes = static_cast<double>(x.numel()) * 4.0;
  char shape[32];
  std::snprintf(shape, sizeof(shape), "%lld", static_cast<long long>(x.numel()));
  for (int threads : {1, 4}) {
    core::set_num_threads(threads);
    const auto msg = c.encode(x);
    const double te = best_of(3, [&] { c.encode(x); });
    const double td = best_of(3, [&] { c.decode(msg); });
    emit(std::string(label) + "_encode", shape, threads, te * 1e9,
         in_bytes / te / 1e9);
    emit(std::string(label) + "_decode", shape, threads, td * 1e9,
         in_bytes / td / 1e9);
    std::printf("%-13s %-18s t=%d  enc %6.2f GB/s  dec %6.2f GB/s\n", label,
                shape, threads, in_bytes / te / 1e9, in_bytes / td / 1e9);
  }
  core::set_num_threads(1);
}

// One encode + one decode record per standard lossless codec tier
// (compress/lossless.h), on the fp16 wire bytes of a seeded activation
// tensor — the byte distribution the codec actually sees on a link. GB/s is
// quoted against the RAW payload (what the link would otherwise carry);
// each record also stores the measured compression ratio. Runs in both
// --quick and full mode so the CI perf gate and the committed baseline
// share record keys. Scalar codecs: threads = 1 only.
void bench_lossless(const ts::Tensor& x) {
  std::vector<std::byte> raw;
  raw.reserve(static_cast<size_t>(x.numel()) * 2);
  cp::wire::append_fp16(raw, x);
  const double raw_bytes = static_cast<double>(raw.size());
  char shape[32];
  std::snprintf(shape, sizeof(shape), "%lld", static_cast<long long>(x.numel()));
  core::set_num_threads(1);
  for (const cp::LosslessCodec& codec : cp::standard_lossless_codecs()) {
    const std::vector<std::byte> enc = codec.encode(raw);
    const double ratio = static_cast<double>(enc.size()) / raw_bytes;
    const double te = best_of(3, [&] { codec.encode(raw); });
    const double td = best_of(3, [&] { codec.decode(enc); });
    const std::string label = "lossless(" + codec.name() + ")";
    for (const char* dir : {"_encode", "_decode"}) {
      const double t = dir[1] == 'e' ? te : td;
      obs::json::Value r = obs::json::Value::object();
      r.set("op", label + dir);
      r.set("shape", std::string(shape));
      r.set("threads", 1);
      r.set("ns_op", t * 1e9);
      r.set("gb_s", raw_bytes / t / 1e9);
      r.set("ratio", ratio);
      obs::RunReport::current()->add_record(std::move(r));
      ++g_emitted;
    }
    std::printf("%-28s %-10s t=1  enc %6.2f GB/s  dec %6.2f GB/s  ratio %.3f\n",
                label.c_str(), shape, raw_bytes / te / 1e9, raw_bytes / td / 1e9,
                ratio);
  }
}

// The fine-tune workload: BertModel b8 s64 h128 l4 forward, MSE loss,
// backward and an Adam step, on a fixed batch.
class FinetuneStep {
 public:
  FinetuneStep() : gen_(5), model_(config(), gen_), params_(model_.parameters()),
                   opt_(params_, 1e-4f), target_(ts::Shape{kBatch, kSeq, 128}) {
    in_.batch = kBatch;
    in_.seq = kSeq;
    for (int64_t i = 0; i < kBatch * kSeq; ++i) in_.token_ids.push_back(i % 1000);
    in_.segment_ids.assign(static_cast<size_t>(kBatch * kSeq), 0);
    in_.lengths.assign(static_cast<size_t>(kBatch), kSeq);
    run();  // warm-up (allocations, first-touch)
  }

  static const char* shape() { return "b8_s64_h128_l4"; }

  void run() {
    ts::Generator fgen(7);
    ag::Variable y = model_.forward(in_, fgen, true);
    ag::Variable loss = ag::mse_loss(y, target_);
    for (auto& p : params_) p.zero_grad();
    loss.backward();
    opt_.step();
  }

 private:
  static constexpr int64_t kBatch = 8;
  static constexpr int64_t kSeq = 64;

  static nn::BertConfig config() {
    nn::BertConfig cfg;
    cfg.vocab_size = 1024;
    cfg.hidden = 128;
    cfg.num_layers = 4;
    cfg.num_heads = 4;
    cfg.intermediate = 512;
    cfg.max_seq = kSeq;
    cfg.dropout = 0.0f;
    return cfg;
  }

  ts::Generator gen_;
  nn::BertModel model_;
  std::vector<ag::Variable> params_;
  actcomp::train::Adam opt_;
  ts::Tensor target_;
  nn::EncoderInput in_;
};

void bench_finetune_step() {
  for (int threads : {1, 4}) {
    core::set_num_threads(threads);
    FinetuneStep step;
    const double t = best_of(3, [&] { step.run(); });
    emit("finetune_step", FinetuneStep::shape(), threads, t * 1e9, 0.0);
    std::printf("finetune_step %-18s t=%d  %8.1f ms/step\n", FinetuneStep::shape(),
                threads, t * 1e3);
  }
  core::set_num_threads(1);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The enabled profiler's cost on the fine-tune step (DESIGN.md §11), timed
// in one process as 60 interleaved pairs of steps, one with the profiler
// off and one with it on; the order flips every pair so drift cancels. The
// record's `ratio` is the median of the per-pair on/off ratios, which
// tools/check_overhead.py gates at 2%. Quick runs take as many pairs as
// the full sweep: at 30 the t=4 median read at the threshold.
void bench_profiler_overhead() {
  constexpr int pairs = 60;
  const bool restore = obs::profiler_enabled();
  for (int threads : {1, 4}) {
    core::set_num_threads(threads);
    FinetuneStep step;
    std::vector<double> off_ms, on_ms, ratios;
    for (int p = 0; p < pairs; ++p) {
      double ms[2] = {0.0, 0.0};
      for (const int on : p % 2 ? std::array{1, 0} : std::array{0, 1}) {
        obs::set_profiler_enabled(on == 1);
        const auto t0 = Clock::now();
        step.run();
        ms[on] = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
        obs::set_profiler_enabled(false);
      }
      off_ms.push_back(ms[0]);
      on_ms.push_back(ms[1]);
      ratios.push_back(ms[1] / ms[0]);
    }
    const double ratio = median(ratios);
    obs::json::Value r = obs::json::Value::object();
    r.set("op", "profiler_overhead");
    r.set("shape", FinetuneStep::shape());
    r.set("threads", threads);
    r.set("ns_op", median(off_ms) * 1e6);
    r.set("gb_s", 0.0);
    r.set("ns_on", median(on_ms) * 1e6);
    r.set("ratio", ratio);
    r.set("pairs", pairs);
    obs::RunReport::current()->add_record(std::move(r));
    ++g_emitted;
    std::printf("profiler on/off %-16s t=%d  %8.1f / %8.1f ms  median ratio %.4f "
                "(%d pairs)\n", FinetuneStep::shape(), threads, median(on_ms),
                median(off_ms), ratio, pairs);
  }
  obs::set_profiler_enabled(restore);
  core::set_num_threads(1);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  const char* out = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      out = argv[i];
    }
  }
  obs::RunReport report("kernels_bench");
  report.set_config("quick", quick);
  report.set_config("seed", int64_t{99});
  std::printf("kernel benchmarks (pool default: %d threads)%s\n\n",
              core::num_threads(), quick ? " [quick]" : "");

  // The acceptance shape first, then the paper's hidden sizes as
  // (tokens x hidden x hidden) projections with tokens = 512. Quick mode
  // keeps one seeded shape and one larger hidden size.
  bench_matmul(512, 512, 512, /*run_seed=*/true);
  std::printf("\n");
  bench_matmul_tiers(512, 512, 512);
  bench_gemm_into_tiers();
  if (!quick) {
    bench_matmul(768, 768, 768, /*run_seed=*/true);
    for (int64_t hidden : {768, 1024, 2048, 4096, 8192}) {
      bench_matmul(512, hidden, hidden, /*run_seed=*/hidden <= 4096);
    }
  } else {
    bench_matmul(512, 1024, 1024, /*run_seed=*/true);
  }

  std::printf("\n");
  bench_gelu_tiers();
  bench_table_tiers();

  std::printf("\n");
  {
    ts::Generator gen(11);
    // The 64x16384 shape runs in BOTH modes so `--quick` (the CI gate) and
    // the full sweep (what baselines are committed from) share record keys.
    const ts::Tensor xq = gen.normal(ts::Shape{64, 16384});
    cp::TopKCompressor topk(0.1);
    bench_compressor("topk(0.1)", topk, xq);
    cp::RandomKCompressor randk(0.1, 11);
    bench_compressor("randk(0.1)", randk, xq);
    cp::QuantizeCompressor quant(4);
    bench_compressor("quant(4b)", quant, xq);
    std::printf("\n");
    bench_lossless(xq);
    if (!quick) {
      const ts::Tensor x = gen.normal(ts::Shape{256, 16384});
      bench_compressor("topk(0.1)", topk, x);
      bench_compressor("quant(4b)", quant, x);
    }
  }

  std::printf("\n");
  bench_finetune_step();
  bench_profiler_overhead();

  // The argv path gets the same canonical document the RunReport writes to
  // $ACTCOMP_REPORT_DIR — this is what baselines are committed from.
  const std::string doc = report.to_json().dump(2);
  if (FILE* f = std::fopen(out, "w")) {
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\nwrote %d records to %s\n", g_emitted, out);
  } else {
    std::fprintf(stderr, "cannot open %s for writing\n", out);
  }
  return 0;
}
