// BertModel: embeddings + N transformer encoder layers, plus task heads.
//
// The architecture matches BERT/Megatron-LM (learned token/position/segment
// embeddings, post-LN encoder layers, tanh pooler over [CLS]); the default
// configuration is scaled down so real training runs on one CPU core, while
// the throughput simulator (src/sim) models the paper's BERT-Large shape.
#pragma once

#include <map>
#include <memory>

#include "nn/layernorm.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/transformer_layer.h"

namespace actcomp::nn {

struct BertConfig {
  int64_t vocab_size = 1024;
  int64_t hidden = 128;
  int64_t num_layers = 8;
  int64_t num_heads = 4;
  int64_t intermediate = 512;
  int64_t max_seq = 128;
  int64_t type_vocab = 2;  ///< segment ids (sentence A / B)
  float dropout = 0.1f;

  TransformerLayerConfig layer_config() const {
    return {hidden, num_heads, intermediate, dropout};
  }

  /// The paper's BERT-Large shape (345M params) — used by the simulator and
  /// the analytical model, not for CPU training.
  static BertConfig bert_large() {
    return {30522, 1024, 24, 16, 4096, 512, 2, 0.1f};
  }
};

/// One tokenized (and padded) mini-batch.
struct EncoderInput {
  int64_t batch = 0;
  int64_t seq = 0;
  std::vector<int64_t> token_ids;    ///< batch*seq, row-major
  std::vector<int64_t> segment_ids;  ///< batch*seq (all zero if single-segment)
  std::vector<int64_t> lengths;      ///< batch; positions >= length are padding
};

/// Additive attention mask: 0 at valid key positions, -1e4 at padding.
tensor::Tensor make_key_mask(const EncoderInput& in);

class BertModel final : public Module {
 public:
  BertModel(const BertConfig& cfg, tensor::Generator& gen);

  /// Sequence output [b, s, h].
  autograd::Variable forward(const EncoderInput& in, tensor::Generator& gen,
                             bool training) const;

  /// Causal (decoder-style) full-sequence inference forward: token + position
  /// embeddings (single-segment, no dropout), causal layers, boundary
  /// compressors. `token_ids` is batch*seq row-major; output [b, s, h].
  autograd::Variable forward_causal(const std::vector<int64_t>& token_ids,
                                    int64_t batch) const;

  /// Incremental inference forward: embeds the n new tokens per sequence at
  /// positions [cache.len(), cache.len()+n), runs every layer over the
  /// cache, and commits the step; if anything throws, the step is aborted
  /// and the cache keeps its committed prefix. Bit-identical to
  /// forward_causal over the concatenated token stream at every prefix
  /// (tests/kv_cache_test.cpp); n == prompt length is the prefill phase,
  /// n == 1 the decode phase.
  autograd::Variable forward_cached(const std::vector<int64_t>& token_ids,
                                    int64_t batch, KvCache& cache) const;

  /// A cache shaped for this model: [num_layers] x [batch, ·, hidden].
  KvCache make_cache(int64_t batch, int64_t capacity = 0) const;

  std::vector<NamedParam> named_parameters() const override;

  const BertConfig& config() const { return cfg_; }
  int64_t num_layers() const { return static_cast<int64_t>(layers_.size()); }
  TransformerEncoderLayer& layer(int64_t i);

  /// Attach a compressor pair to layer i's two TP communication points.
  void set_layer_compression(int64_t i, compress::Compressor* attn_comm,
                             compress::Compressor* mlp_comm);
  /// Attach a compressor to the activation leaving layer i (a pipeline-stage
  /// boundary in the paper's Fig. 3). Pass nullptr to detach.
  void set_boundary_compression(int64_t i, compress::Compressor* comp);
  /// Detach every compressor.
  void clear_compression();

 private:
  /// Token + position embeddings for n new tokens starting at `start`,
  /// normalized and shaped [b, n, h] (the shared head of the causal paths).
  autograd::Variable embed_causal(const std::vector<int64_t>& token_ids,
                                  int64_t batch, int64_t start) const;

  BertConfig cfg_;
  autograd::Variable tok_emb_;  // [V, h]
  autograd::Variable pos_emb_;  // [max_seq, h]
  autograd::Variable seg_emb_;  // [type_vocab, h]
  LayerNorm emb_ln_;
  std::vector<std::unique_ptr<TransformerEncoderLayer>> layers_;
  std::map<int64_t, compress::Compressor*> boundary_comp_;
};

/// Sequence classification head: tanh pooler over [CLS] + linear classifier.
class ClassificationHead final : public Module {
 public:
  ClassificationHead(int64_t hidden, int64_t num_classes, tensor::Generator& gen);
  /// seq_out: [b, s, h] -> logits [b, num_classes].
  autograd::Variable forward(const autograd::Variable& seq_out) const;
  std::vector<NamedParam> named_parameters() const override;

 private:
  Linear pooler_;
  Linear classifier_;
};

/// Regression head (STS-B): tanh pooler over [CLS] + linear to a scalar.
class RegressionHead final : public Module {
 public:
  RegressionHead(int64_t hidden, tensor::Generator& gen);
  /// seq_out: [b, s, h] -> predictions [b].
  autograd::Variable forward(const autograd::Variable& seq_out) const;
  std::vector<NamedParam> named_parameters() const override;

 private:
  Linear pooler_;
  Linear out_;
};

/// Result of an autoregressive decode (greedy_generate).
struct GenerateResult {
  std::vector<int64_t> tokens;  ///< prompt followed by the generated tokens
  int64_t prompt_tokens = 0;
  int64_t generated = 0;
};

class MlmHead;

/// Greedy autoregressive decoding: prefill the prompt through the cached
/// causal path in one step, then decode one token at a time, feeding back the
/// argmax (lowest index on ties) of the LM head's logits. max_new_tokens == 0
/// is a graceful no-op that returns the prompt unchanged; an empty prompt or
/// prompt + max_new_tokens > max_seq throw std::invalid_argument.
GenerateResult greedy_generate(const BertModel& model, const MlmHead& lm_head,
                               const std::vector<int64_t>& prompt,
                               int64_t max_new_tokens);

/// Masked-language-model head: transform + GELU + LN + vocabulary decoder.
class MlmHead final : public Module {
 public:
  MlmHead(int64_t hidden, int64_t vocab, tensor::Generator& gen);
  /// seq_out: [b, s, h] -> logits [b*s, vocab].
  autograd::Variable forward(const autograd::Variable& seq_out) const;
  std::vector<NamedParam> named_parameters() const override;

 private:
  Linear transform_;
  LayerNorm ln_;
  Linear decoder_;
};

}  // namespace actcomp::nn
