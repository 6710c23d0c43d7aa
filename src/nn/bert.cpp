#include "nn/bert.h"

#include "autograd/functions.h"
#include "tensor/check.h"

namespace actcomp::nn {

namespace ag = actcomp::autograd;
namespace ts = actcomp::tensor;

tensor::Tensor make_key_mask(const EncoderInput& in) {
  ts::Tensor mask{ts::Shape{in.batch, in.seq}};
  auto d = mask.data();
  for (int64_t b = 0; b < in.batch; ++b) {
    const int64_t len = b < static_cast<int64_t>(in.lengths.size())
                            ? in.lengths[static_cast<size_t>(b)]
                            : in.seq;
    for (int64_t s = len; s < in.seq; ++s) {
      d[static_cast<size_t>(b * in.seq + s)] = -1e4f;
    }
  }
  return mask;
}

BertModel::BertModel(const BertConfig& cfg, tensor::Generator& gen)
    : cfg_(cfg), emb_ln_(cfg.hidden) {
  ACTCOMP_CHECK(cfg.vocab_size > 0 && cfg.hidden > 0 && cfg.num_layers > 0,
                "invalid BertConfig");
  const float std = 0.02f;  // BERT's truncated-normal-ish init
  tok_emb_ = ag::Variable::leaf(
      gen.normal(ts::Shape{cfg.vocab_size, cfg.hidden}, 0.0f, std), true);
  pos_emb_ = ag::Variable::leaf(
      gen.normal(ts::Shape{cfg.max_seq, cfg.hidden}, 0.0f, std), true);
  seg_emb_ = ag::Variable::leaf(
      gen.normal(ts::Shape{cfg.type_vocab, cfg.hidden}, 0.0f, std), true);
  layers_.reserve(static_cast<size_t>(cfg.num_layers));
  for (int64_t i = 0; i < cfg.num_layers; ++i) {
    layers_.push_back(
        std::make_unique<TransformerEncoderLayer>(cfg.layer_config(), gen));
  }
}

TransformerEncoderLayer& BertModel::layer(int64_t i) {
  ACTCOMP_CHECK(i >= 0 && i < num_layers(), "layer index " << i << " out of range");
  return *layers_[static_cast<size_t>(i)];
}

void BertModel::set_layer_compression(int64_t i, compress::Compressor* attn_comm,
                                      compress::Compressor* mlp_comm) {
  layer(i).set_compression(attn_comm, mlp_comm);
}

void BertModel::set_boundary_compression(int64_t i, compress::Compressor* comp) {
  ACTCOMP_CHECK(i >= 0 && i < num_layers(), "boundary index " << i << " out of range");
  if (comp == nullptr) {
    boundary_comp_.erase(i);
  } else {
    boundary_comp_[i] = comp;
  }
}

void BertModel::clear_compression() {
  for (auto& l : layers_) l->set_compression(nullptr, nullptr);
  boundary_comp_.clear();
}

ag::Variable BertModel::forward(const EncoderInput& in, tensor::Generator& gen,
                                bool training) const {
  ACTCOMP_CHECK(in.batch > 0 && in.seq > 0, "empty encoder input");
  ACTCOMP_CHECK(in.seq <= cfg_.max_seq,
                "sequence length " << in.seq << " exceeds max_seq " << cfg_.max_seq);
  ACTCOMP_CHECK(static_cast<int64_t>(in.token_ids.size()) == in.batch * in.seq,
                "token_ids size mismatch");

  // Token + position + segment embeddings.
  ag::Variable x = ag::embedding(tok_emb_, in.token_ids);  // [b*s, h]
  std::vector<int64_t> pos_ids(static_cast<size_t>(in.batch * in.seq));
  for (int64_t b = 0; b < in.batch; ++b) {
    for (int64_t s = 0; s < in.seq; ++s) {
      pos_ids[static_cast<size_t>(b * in.seq + s)] = s;
    }
  }
  x = ag::add(x, ag::embedding(pos_emb_, pos_ids));
  if (!in.segment_ids.empty()) {
    ACTCOMP_CHECK(static_cast<int64_t>(in.segment_ids.size()) == in.batch * in.seq,
                  "segment_ids size mismatch");
    x = ag::add(x, ag::embedding(seg_emb_, in.segment_ids));
  }
  x = emb_ln_.forward(x);
  x = ag::dropout(x, cfg_.dropout, gen, training);
  x = ag::reshape(x, ts::Shape{in.batch, in.seq, cfg_.hidden});

  const ts::Tensor key_mask = make_key_mask(in);
  for (int64_t i = 0; i < num_layers(); ++i) {
    x = layers_[static_cast<size_t>(i)]->forward(x, key_mask, gen, training);
    const auto it = boundary_comp_.find(i);
    if (it != boundary_comp_.end()) x = it->second->apply(x);
  }
  return x;
}

ag::Variable BertModel::embed_causal(const std::vector<int64_t>& token_ids,
                                     int64_t batch, int64_t start) const {
  ACTCOMP_CHECK(batch > 0, "causal forward needs batch >= 1, got " << batch);
  ACTCOMP_CHECK(!token_ids.empty(),
                "causal forward got an empty token stream — decode needs at "
                "least one token");
  ACTCOMP_CHECK(static_cast<int64_t>(token_ids.size()) % batch == 0,
                "token_ids size " << token_ids.size()
                                  << " not divisible by batch " << batch);
  const int64_t n = static_cast<int64_t>(token_ids.size()) / batch;
  ACTCOMP_CHECK(start + n <= cfg_.max_seq,
                "decode positions [" << start << ", " << start + n
                                     << ") exceed max_seq " << cfg_.max_seq);

  ag::Variable x = ag::embedding(tok_emb_, token_ids);  // [b*n, h]
  std::vector<int64_t> pos_ids(static_cast<size_t>(batch * n));
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t i = 0; i < n; ++i) {
      pos_ids[static_cast<size_t>(b * n + i)] = start + i;
    }
  }
  x = ag::add(x, ag::embedding(pos_emb_, pos_ids));
  x = emb_ln_.forward(x);
  return ag::reshape(x, ts::Shape{batch, n, cfg_.hidden});
}

ag::Variable BertModel::forward_causal(const std::vector<int64_t>& token_ids,
                                       int64_t batch) const {
  ag::Variable x = embed_causal(token_ids, batch, 0);
  for (int64_t i = 0; i < num_layers(); ++i) {
    x = layers_[static_cast<size_t>(i)]->forward_causal(x);
    const auto it = boundary_comp_.find(i);
    if (it != boundary_comp_.end()) x = it->second->apply(x);
  }
  return x;
}

ag::Variable BertModel::forward_cached(const std::vector<int64_t>& token_ids,
                                       int64_t batch, KvCache& cache) const {
  ACTCOMP_CHECK(cache.num_layers() == num_layers() &&
                    cache.hidden() == cfg_.hidden && cache.batch() == batch,
                "cache shaped for " << cache.num_layers() << " layers x ["
                                    << cache.batch() << ", ·, " << cache.hidden()
                                    << "], model needs " << num_layers()
                                    << " x [" << batch << ", ·, " << cfg_.hidden
                                    << "]");
  ag::Variable x = embed_causal(token_ids, batch, cache.len());
  const int64_t n = x.value().dim(1);
  cache.begin_step(n);
  try {
    for (int64_t i = 0; i < num_layers(); ++i) {
      x = layers_[static_cast<size_t>(i)]->forward_cached(x, cache, i);
      const auto it = boundary_comp_.find(i);
      if (it != boundary_comp_.end()) x = it->second->apply(x);
    }
    cache.commit();
  } catch (...) {
    cache.abort_step();
    throw;
  }
  return x;
}

KvCache BertModel::make_cache(int64_t batch, int64_t capacity) const {
  return KvCache(num_layers(), batch, cfg_.hidden, capacity);
}

std::vector<NamedParam> BertModel::named_parameters() const {
  std::vector<NamedParam> out{{"embeddings.token", tok_emb_},
                              {"embeddings.position", pos_emb_},
                              {"embeddings.segment", seg_emb_}};
  for (auto& p : prefixed("embeddings.ln", emb_ln_.named_parameters())) {
    out.push_back(std::move(p));
  }
  for (size_t i = 0; i < layers_.size(); ++i) {
    for (auto& p : prefixed("layer" + std::to_string(i),
                            layers_[i]->named_parameters())) {
      out.push_back(std::move(p));
    }
  }
  return out;
}

// ---- heads ----

namespace {
/// [CLS] rows of a [b, s, h] sequence output, as [b, h].
ag::Variable cls_rows(const ag::Variable& seq_out) {
  const ts::Tensor& v = seq_out.value();
  ACTCOMP_CHECK(v.rank() == 3, "head expects [b, s, h], got " << v.shape().str());
  const int64_t b = v.dim(0), s = v.dim(1), h = v.dim(2);
  ag::Variable flat = ag::reshape(seq_out, ts::Shape{b * s, h});
  std::vector<int64_t> rows(static_cast<size_t>(b));
  for (int64_t i = 0; i < b; ++i) rows[static_cast<size_t>(i)] = i * s;
  return ag::gather_rows(flat, rows);
}
}  // namespace

ClassificationHead::ClassificationHead(int64_t hidden, int64_t num_classes,
                                       tensor::Generator& gen)
    : pooler_(hidden, hidden, gen), classifier_(hidden, num_classes, gen) {}

ag::Variable ClassificationHead::forward(const ag::Variable& seq_out) const {
  ag::Variable pooled = ag::tanh(pooler_.forward(cls_rows(seq_out)));
  return classifier_.forward(pooled);
}

std::vector<NamedParam> ClassificationHead::named_parameters() const {
  std::vector<NamedParam> out;
  for (auto& p : prefixed("pooler", pooler_.named_parameters())) out.push_back(std::move(p));
  for (auto& p : prefixed("classifier", classifier_.named_parameters())) out.push_back(std::move(p));
  return out;
}

RegressionHead::RegressionHead(int64_t hidden, tensor::Generator& gen)
    : pooler_(hidden, hidden, gen), out_(hidden, 1, gen) {}

ag::Variable RegressionHead::forward(const ag::Variable& seq_out) const {
  ag::Variable pooled = ag::tanh(pooler_.forward(cls_rows(seq_out)));
  ag::Variable y = out_.forward(pooled);  // [b, 1]
  return ag::reshape(y, ts::Shape{y.value().dim(0)});
}

std::vector<NamedParam> RegressionHead::named_parameters() const {
  std::vector<NamedParam> out;
  for (auto& p : prefixed("pooler", pooler_.named_parameters())) out.push_back(std::move(p));
  for (auto& p : prefixed("out", out_.named_parameters())) out.push_back(std::move(p));
  return out;
}

MlmHead::MlmHead(int64_t hidden, int64_t vocab, tensor::Generator& gen)
    : transform_(hidden, hidden, gen), ln_(hidden), decoder_(hidden, vocab, gen) {}

ag::Variable MlmHead::forward(const ag::Variable& seq_out) const {
  const ts::Tensor& v = seq_out.value();
  ACTCOMP_CHECK(v.rank() == 3, "MLM head expects [b, s, h], got " << v.shape().str());
  const int64_t b = v.dim(0), s = v.dim(1), h = v.dim(2);
  ag::Variable flat = ag::reshape(seq_out, ts::Shape{b * s, h});
  ag::Variable t = ln_.forward(transform_.forward(flat, ag::Act::kGelu));
  return decoder_.forward(t);
}

std::vector<NamedParam> MlmHead::named_parameters() const {
  std::vector<NamedParam> out;
  for (auto& p : prefixed("transform", transform_.named_parameters())) out.push_back(std::move(p));
  for (auto& p : prefixed("ln", ln_.named_parameters())) out.push_back(std::move(p));
  for (auto& p : prefixed("decoder", decoder_.named_parameters())) out.push_back(std::move(p));
  return out;
}

// ---- greedy decoding ----

namespace {

/// Last position of a [1, n, h] hidden state as [1, 1, h].
ag::Variable last_position(const ag::Variable& h) {
  const ts::Tensor& v = h.value();
  const int64_t n = v.dim(1), hid = v.dim(2);
  if (n == 1) return h;
  ag::Variable flat = ag::reshape(h, ts::Shape{n, hid});
  ag::Variable last = ag::gather_rows(flat, {n - 1});
  return ag::reshape(last, ts::Shape{1, 1, hid});
}

/// Argmax over a [1, vocab] logits row, lowest index on ties.
int64_t argmax_logits(const ag::Variable& logits) {
  const auto d = logits.value().data();
  int64_t best = 0;
  for (int64_t i = 1; i < static_cast<int64_t>(d.size()); ++i) {
    if (d[static_cast<size_t>(i)] > d[static_cast<size_t>(best)]) best = i;
  }
  return best;
}

}  // namespace

GenerateResult greedy_generate(const BertModel& model, const MlmHead& lm_head,
                               const std::vector<int64_t>& prompt,
                               int64_t max_new_tokens) {
  ACTCOMP_CHECK(!prompt.empty(),
                "greedy_generate: empty prompt — the decode loop needs at "
                "least one token of context");
  ACTCOMP_CHECK(max_new_tokens >= 0,
                "greedy_generate: max_new_tokens = " << max_new_tokens
                                                     << ", must be >= 0");
  const int64_t p = static_cast<int64_t>(prompt.size());
  ACTCOMP_CHECK(p + max_new_tokens <= model.config().max_seq,
                "greedy_generate: prompt (" << p << ") + max_new_tokens ("
                                            << max_new_tokens
                                            << ") exceeds max_seq "
                                            << model.config().max_seq);

  GenerateResult r;
  r.tokens = prompt;
  r.prompt_tokens = p;
  if (max_new_tokens == 0) return r;  // zero-length decode: graceful no-op

  KvCache cache = model.make_cache(1, p + max_new_tokens);
  ag::Variable h = model.forward_cached(prompt, 1, cache);  // prefill
  int64_t next = argmax_logits(lm_head.forward(last_position(h)));
  for (;;) {
    r.tokens.push_back(next);
    ++r.generated;
    if (r.generated == max_new_tokens) break;
    h = model.forward_cached({next}, 1, cache);  // decode one position
    next = argmax_logits(lm_head.forward(h));
  }
  return r;
}

}  // namespace actcomp::nn
