// Differential tests for the KV-cache decode path (ISSUE 7 tentpole):
// token-by-token cached decode must reproduce the full-sequence causal
// forward BYTE-FOR-BYTE at every prefix length, at 1 and 4 threads, with and
// without (row-local) compression — plus cache growth and step-transaction
// edge cases and the generate() loop's degenerate inputs.
#include <cstring>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "compress/settings.h"
#include "core/threadpool.h"
#include "nn/bert.h"
#include "nn/kv_cache.h"
#include "tensor/ops.h"
#include "tensor/random.h"

namespace {

using actcomp::autograd::Variable;
using actcomp::nn::BertConfig;
using actcomp::nn::BertModel;
using actcomp::nn::GenerateResult;
using actcomp::nn::KvCache;
using actcomp::nn::MlmHead;
using actcomp::tensor::Generator;
using actcomp::tensor::Tensor;

class ThreadGuard {
 public:
  ThreadGuard() : saved_(actcomp::core::num_threads()) {}
  ~ThreadGuard() { actcomp::core::set_num_threads(saved_); }

 private:
  int saved_;
};

BertConfig small_config() {
  BertConfig cfg;
  cfg.vocab_size = 97;
  cfg.hidden = 32;
  cfg.num_layers = 3;
  cfg.num_heads = 4;
  cfg.intermediate = 64;
  cfg.max_seq = 40;
  return cfg;
}

std::vector<int64_t> token_stream(const BertConfig& cfg, int64_t batch,
                                  int64_t seq, uint64_t salt) {
  std::vector<int64_t> toks(static_cast<size_t>(batch * seq));
  for (size_t i = 0; i < toks.size(); ++i) {
    toks[i] = static_cast<int64_t>((salt + 31 * i + i * i) %
                                   static_cast<uint64_t>(cfg.vocab_size));
  }
  return toks;
}

/// Exact byte equality of two float tensors (NOT EXPECT_FLOAT_EQ — the
/// contract is bit-identity, so compare the raw words).
void expect_bytes_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_TRUE(a.shape() == b.shape())
      << what << ": " << a.shape().str() << " vs " << b.shape().str();
  const auto da = a.data();
  const auto db = b.data();
  ASSERT_EQ(0, std::memcmp(da.data(), db.data(), da.size() * sizeof(float)))
      << what << ": payloads differ";
}

/// The tentpole differential: decode `toks` token-by-token through the cache
/// and demand byte-identity with forward_causal at EVERY prefix length.
void run_differential(BertModel& model, const BertConfig& cfg, int64_t batch,
                      int64_t seq, uint64_t salt) {
  const std::vector<int64_t> toks = token_stream(cfg, batch, seq, salt);
  KvCache cache = model.make_cache(batch);
  for (int64_t t = 0; t < seq; ++t) {
    std::vector<int64_t> step(static_cast<size_t>(batch));
    for (int64_t bi = 0; bi < batch; ++bi) {
      step[static_cast<size_t>(bi)] = toks[static_cast<size_t>(bi * seq + t)];
    }
    const Variable inc = model.forward_cached(step, batch, cache);

    std::vector<int64_t> prefix_toks(static_cast<size_t>(batch * (t + 1)));
    for (int64_t bi = 0; bi < batch; ++bi) {
      for (int64_t j = 0; j <= t; ++j) {
        prefix_toks[static_cast<size_t>(bi * (t + 1) + j)] =
            toks[static_cast<size_t>(bi * seq + j)];
      }
    }
    const Variable full = model.forward_causal(prefix_toks, batch);
    SCOPED_TRACE("prefix length " + std::to_string(t + 1));
    // The decode step only produces the newest position; compare it against
    // the same position of the full causal forward over the whole prefix.
    Tensor last{actcomp::tensor::Shape{batch, 1, cfg.hidden}};
    auto dl = last.data();
    const auto df = full.value().data();
    for (int64_t bi = 0; bi < batch; ++bi) {
      std::memcpy(dl.data() + static_cast<size_t>(bi * cfg.hidden),
                  df.data() + static_cast<size_t>((bi * (t + 1) + t) * cfg.hidden),
                  static_cast<size_t>(cfg.hidden) * sizeof(float));
    }
    expect_bytes_equal(inc.value(), last, "cached decode vs full forward");
  }
}

TEST(KvCacheDifferential, TokenByTokenMatchesFullForwardEveryPrefix) {
  const BertConfig cfg = small_config();
  Generator gen(7);
  BertModel model(cfg, gen);
  run_differential(model, cfg, /*batch=*/1, /*seq=*/12, /*salt=*/3);
}

TEST(KvCacheDifferential, HoldsAtBatchTwo) {
  const BertConfig cfg = small_config();
  Generator gen(11);
  BertModel model(cfg, gen);
  run_differential(model, cfg, /*batch=*/2, /*seq=*/9, /*salt=*/5);
}

TEST(KvCacheDifferential, HoldsAtOneAndFourThreads) {
  const BertConfig cfg = small_config();
  ThreadGuard guard;
  for (int threads : {1, 4}) {
    actcomp::core::set_num_threads(threads);
    SCOPED_TRACE("threads = " + std::to_string(threads));
    Generator gen(13);
    BertModel model(cfg, gen);
    run_differential(model, cfg, /*batch=*/1, /*seq=*/10, /*salt=*/9);
  }
}

TEST(KvCacheDifferential, ThreadCountDoesNotChangeDecodeBytes) {
  // Same model, same stream, 1 vs 4 threads: the decode path itself must be
  // bit-stable across thread counts (deterministic parallel_for chunking).
  const BertConfig cfg = small_config();
  ThreadGuard guard;
  std::vector<float> lane_bytes[2];
  int lane = 0;
  for (int threads : {1, 4}) {
    actcomp::core::set_num_threads(threads);
    Generator gen(17);
    BertModel model(cfg, gen);
    KvCache cache = model.make_cache(1);
    const std::vector<int64_t> toks = token_stream(cfg, 1, 8, 21);
    std::vector<float> bytes;
    for (int64_t t = 0; t < 8; ++t) {
      const Variable h = model.forward_cached({toks[static_cast<size_t>(t)]}, 1, cache);
      const auto d = h.value().data();
      bytes.insert(bytes.end(), d.begin(), d.end());
    }
    lane_bytes[lane++] = std::move(bytes);
  }
  ASSERT_EQ(lane_bytes[0].size(), lane_bytes[1].size());
  EXPECT_EQ(0, std::memcmp(lane_bytes[0].data(), lane_bytes[1].data(),
                           lane_bytes[0].size() * sizeof(float)));
}

TEST(KvCacheDifferential, ChunkedPrefillMatchesTokenByToken) {
  // Prefill 5 tokens in one step, then decode 3 more one at a time; compare
  // with the full causal forward over all 8.
  const BertConfig cfg = small_config();
  Generator gen(23);
  BertModel model(cfg, gen);
  const std::vector<int64_t> toks = token_stream(cfg, 1, 8, 2);

  KvCache cache = model.make_cache(1);
  const std::vector<int64_t> prompt(toks.begin(), toks.begin() + 5);
  Variable h = model.forward_cached(prompt, 1, cache);
  const Variable full5 = model.forward_causal(prompt, 1);
  expect_bytes_equal(h.value(), full5.value(), "chunked prefill");

  for (int64_t t = 5; t < 8; ++t) {
    h = model.forward_cached({toks[static_cast<size_t>(t)]}, 1, cache);
  }
  const Variable full8 = model.forward_causal(toks, 1);
  Tensor last{actcomp::tensor::Shape{1, 1, cfg.hidden}};
  std::memcpy(last.data().data(),
              full8.value().data().data() + static_cast<size_t>(7 * cfg.hidden),
              static_cast<size_t>(cfg.hidden) * sizeof(float));
  expect_bytes_equal(h.value(), last, "decode after chunked prefill");
}

TEST(KvCacheDifferential, RowLocalCompressionPreservesIdentity) {
  // Quantization is row-local over hidden-sized rows, so it commutes with
  // chunking and the differential survives with compressors attached. (Top-K
  // selects globally over the whole tensor and intentionally does NOT.)
  const BertConfig cfg = small_config();
  Generator gen(29);
  BertModel model(cfg, gen);
  Generator cgen(31);
  std::vector<actcomp::compress::CompressorPtr> comps;
  for (int64_t i = 0; i < cfg.num_layers; ++i) {
    comps.push_back(actcomp::compress::make_compressor(
        actcomp::compress::Setting::kQ2, cfg.hidden, cgen));
    comps.push_back(actcomp::compress::make_compressor(
        actcomp::compress::Setting::kQ2, cfg.hidden, cgen));
    model.set_layer_compression(i, comps[static_cast<size_t>(2 * i)].get(),
                                comps[static_cast<size_t>(2 * i + 1)].get());
  }
  run_differential(model, cfg, /*batch=*/1, /*seq=*/8, /*salt=*/4);
  model.clear_compression();
}

// ---- cache mechanics ----

TEST(KvCache, CapacityGrowthPreservesCommittedRows) {
  const BertConfig cfg = small_config();
  Generator gen(37);
  BertModel model(cfg, gen);
  const std::vector<int64_t> toks = token_stream(cfg, 1, 20, 6);

  // Tiny initial capacity: decoding 20 tokens forces repeated doubling.
  KvCache grown = model.make_cache(1, 1);
  KvCache roomy = model.make_cache(1, 64);
  for (int64_t t = 0; t < 20; ++t) {
    const std::vector<int64_t> step{toks[static_cast<size_t>(t)]};
    const Variable a = model.forward_cached(step, 1, grown);
    const Variable b = model.forward_cached(step, 1, roomy);
    SCOPED_TRACE("token " + std::to_string(t));
    expect_bytes_equal(a.value(), b.value(), "growth invariance");
  }
  EXPECT_GE(grown.capacity(), 20);
  EXPECT_EQ(grown.len(), 20);
}

TEST(KvCache, StepTransactionIsEnforced) {
  KvCache cache(2, 1, 8);
  Tensor kv{actcomp::tensor::Shape{1, 1, 8}};
  EXPECT_THROW(cache.append(0, kv, kv), std::invalid_argument);  // no open step
  EXPECT_THROW(cache.commit(), std::invalid_argument);
  cache.begin_step(1);
  EXPECT_THROW(cache.begin_step(1), std::invalid_argument);  // already open
  cache.append(0, kv, kv);
  EXPECT_THROW(cache.append(0, kv, kv), std::invalid_argument);  // twice
  EXPECT_THROW(cache.commit(), std::invalid_argument);  // layer 1 missing
  cache.append(1, kv, kv);
  cache.commit();
  EXPECT_EQ(cache.len(), 1);
  EXPECT_THROW(cache.keys(0, 2), std::invalid_argument);
  EXPECT_THROW(cache.keys(2, 0), std::invalid_argument);
}

TEST(KvCache, HeadLayoutsMatchSplitKeysAndValues) {
  // storage() is what cached attention reads in place: head h's Kᵀ is rows
  // h*dh .. (h+1)*dh - 1 of a sequence's [hidden, cap] key block, and its V
  // a column block of the [cap, hidden] value rows. Every head split of
  // keys()/values() must sit there. Two layers, batch 3, hidden 8, capacity
  // 2, so the 3-position first step regrows the storage, and sequences sit
  // a capacity apart with unused positions between them.
  const int64_t layers = 2, batch = 3, hidden = 8;
  KvCache cache(layers, batch, hidden, 2);
  Generator gen(59);
  auto check_layer = [&](int64_t layer, int64_t total) {
    SCOPED_TRACE("layer " + std::to_string(layer) + ", total " +
                 std::to_string(total));
    const KvCache::Storage st = cache.storage(layer, total);
    const int64_t cap = cache.capacity();
    ASSERT_EQ(st.keys_t.shape(), (actcomp::tensor::Shape{batch, hidden, cap}));
    ASSERT_EQ(st.values.shape(), (actcomp::tensor::Shape{batch, cap, hidden}));
    const Tensor keys = cache.keys(layer, total);
    const Tensor values = cache.values(layer, total);
    for (int64_t heads : {1, 2, 4, 8}) {
      const int64_t dh = hidden / heads;
      for (int64_t bi = 0; bi < batch; ++bi) {
        for (int64_t h = 0; h < heads; ++h) {
          const float* kt = st.keys_t.data().data() + (bi * hidden + h * dh) * cap;
          const float* v = st.values.data().data() + bi * cap * hidden + h * dh;
          for (int64_t p = 0; p < total; ++p) {
            for (int64_t d = 0; d < dh; ++d) {
              ASSERT_EQ(kt[d * cap + p], keys.at({bi, p, h * dh + d}))
                  << "keys: heads " << heads << " seq " << bi << " pos " << p;
              ASSERT_EQ(v[p * hidden + d], values.at({bi, p, h * dh + d}))
                  << "values: heads " << heads << " seq " << bi << " pos " << p;
            }
          }
        }
      }
    }
  };
  std::vector<Tensor> appended_k;
  for (int64_t n : {3, 1, 1}) {
    cache.begin_step(n);
    for (int64_t layer = 0; layer < layers; ++layer) {
      const Tensor k = gen.normal(actcomp::tensor::Shape{batch, n, hidden});
      cache.append(layer, k, gen.normal(actcomp::tensor::Shape{batch, n, hidden}));
      // Inside the open step the rows just appended are visible.
      for (int64_t total : {int64_t{1}, cache.len() + n}) check_layer(layer, total);
      if (layer == 0) appended_k.push_back(k);
      EXPECT_EQ(cache.storage(layer, 0).keys_t.dim(2), cache.capacity());
    }
    cache.commit();
  }
  // keys() reads back exactly what was appended, across the regrowth.
  const Tensor keys = cache.keys(0, 5);
  int64_t pos = 0;
  for (const Tensor& k : appended_k) {
    for (int64_t i = 0; i < k.dim(1); ++i, ++pos) {
      for (int64_t bi = 0; bi < batch; ++bi) {
        for (int64_t c = 0; c < hidden; ++c) {
          ASSERT_EQ(keys.at({bi, pos, c}), k.at({bi, i, c}));
        }
      }
    }
  }
  EXPECT_THROW(cache.storage(0, cache.len() + 1), std::invalid_argument);
  EXPECT_THROW(cache.storage(layers, 1), std::invalid_argument);
}

TEST(KvCache, PositionsBeyondMaxSeqThrow) {
  const BertConfig cfg = small_config();
  Generator gen(47);
  BertModel model(cfg, gen);
  KvCache cache = model.make_cache(1);
  std::vector<int64_t> toks(static_cast<size_t>(cfg.max_seq), 1);
  model.forward_cached(toks, 1, cache);
  EXPECT_THROW(model.forward_cached({1}, 1, cache), std::invalid_argument);
}

// ---- generate() ----

TEST(Generate, EmptyPromptThrows) {
  const BertConfig cfg = small_config();
  Generator gen(53);
  BertModel model(cfg, gen);
  MlmHead head(cfg.hidden, cfg.vocab_size, gen);
  EXPECT_THROW(greedy_generate(model, head, {}, 4), std::invalid_argument);
}

TEST(Generate, ZeroNewTokensIsGracefulNoOp) {
  const BertConfig cfg = small_config();
  Generator gen(59);
  BertModel model(cfg, gen);
  MlmHead head(cfg.hidden, cfg.vocab_size, gen);
  const std::vector<int64_t> prompt{3, 1, 4};
  const GenerateResult r = greedy_generate(model, head, prompt, 0);
  EXPECT_EQ(r.tokens, prompt);
  EXPECT_EQ(r.prompt_tokens, 3);
  EXPECT_EQ(r.generated, 0);
}

TEST(Generate, BudgetBeyondMaxSeqThrows) {
  const BertConfig cfg = small_config();
  Generator gen(61);
  BertModel model(cfg, gen);
  MlmHead head(cfg.hidden, cfg.vocab_size, gen);
  std::vector<int64_t> prompt(static_cast<size_t>(cfg.max_seq - 1), 2);
  EXPECT_THROW(greedy_generate(model, head, prompt, 2), std::invalid_argument);
}

TEST(Generate, DeterministicAndInVocab) {
  const BertConfig cfg = small_config();
  Generator gen(67);
  BertModel model(cfg, gen);
  MlmHead head(cfg.hidden, cfg.vocab_size, gen);
  const std::vector<int64_t> prompt{5, 9, 2, 7};
  const GenerateResult a = greedy_generate(model, head, prompt, 6);
  const GenerateResult b = greedy_generate(model, head, prompt, 6);
  EXPECT_EQ(a.tokens, b.tokens);
  EXPECT_EQ(a.generated, 6);
  ASSERT_EQ(a.tokens.size(), prompt.size() + 6);
  for (const int64_t t : a.tokens) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, cfg.vocab_size);
  }
  // The prompt survives verbatim at the front.
  for (size_t i = 0; i < prompt.size(); ++i) EXPECT_EQ(a.tokens[i], prompt[i]);
}

}  // namespace
