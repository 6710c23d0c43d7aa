// Checkpoint/restore tests: container-format round trips, corruption
// rejection, and the bit-identity resume contract
//
//   train(N)  ==  train(k) -> save -> restore -> train(N - k)
//
// enforced byte-for-byte on parameters, Adam moments, and the RNG cursor by
// comparing the checkpoint files two histories produce.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "autograd/functions.h"
#include "data/pretrain.h"
#include "data/vocab.h"
#include "nn/bert.h"
#include "tensor/io.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "train/checkpoint.h"
#include "train/trainer.h"

namespace ts = actcomp::tensor;
namespace nn = actcomp::nn;
namespace tr = actcomp::train;
namespace dt = actcomp::data;

namespace {

nn::BertConfig micro_config() {
  nn::BertConfig cfg;
  cfg.vocab_size = dt::Vocab::kSize;
  cfg.hidden = 32;
  cfg.num_layers = 2;
  cfg.num_heads = 2;
  cfg.intermediate = 64;
  cfg.max_seq = 16;
  cfg.dropout = 0.0f;
  return cfg;
}

tr::PretrainConfig micro_pretrain(int64_t steps) {
  tr::PretrainConfig cfg;
  cfg.batch_size = 4;
  cfg.steps = steps;
  cfg.seq = 16;
  cfg.lr = 2e-3f;
  cfg.seed = 7;
  return cfg;
}

tr::Checkpoint tiny_checkpoint() {
  tr::Checkpoint ckpt;
  ckpt.step = 42;
  ts::Generator gen(3);
  ckpt.rng_state = gen.state();
  ckpt.meta["kind"] = "test";
  ckpt.tensors["w"] = gen.normal(ts::Shape({2, 3}), 0.0f, 1.0f);
  ckpt.tensors["opt.m.0"] = ts::Tensor::zeros(ts::Shape({2, 3}));
  return ckpt;
}

std::string serialize(const tr::Checkpoint& ckpt) {
  std::ostringstream os(std::ios::binary);
  tr::write_checkpoint(os, ckpt);
  return os.str();
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

template <typename T>
void append_pod(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// The container's checksum: FNV-1a 64 over meta, then payload.
uint64_t fnv1a(const std::string& bytes, uint64_t h = 0xcbf29ce484222325ull) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// A checkpoint header with `meta` and a payload length prefix.
std::string forged_header(const std::string& meta, uint64_t payload_len) {
  std::string bytes;
  append_pod<uint32_t>(bytes, tr::kCheckpointMagic);
  append_pod<uint32_t>(bytes, tr::kCheckpointVersion);
  append_pod<uint64_t>(bytes, meta.size());
  bytes += meta;
  append_pod<uint64_t>(bytes, payload_len);
  return bytes;
}

/// A whole checkpoint file: `meta`, then `payload`, then the checksum
/// recomputed over both, so the file passes every integrity check.
std::string forged_file(const std::string& meta, const std::string& payload) {
  std::string bytes = forged_header(meta, payload.size()) + payload;
  append_pod<uint64_t>(bytes, fnv1a(payload, fnv1a(meta)));
  return bytes;
}

/// An empty tensor map: the payload of a forged-metadata file.
std::string empty_payload() {
  std::ostringstream os(std::ios::binary);
  ts::write_tensor_map(os, {});
  return os.str();
}

/// Reads `bytes` as a checkpoint and returns the error message; "" when it
/// loads.
std::string load_error(const std::string& bytes) {
  std::istringstream is(bytes, std::ios::binary);
  try {
    tr::read_checkpoint(is);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// Live training state to restore into: two parameters, an Adam that has
/// stepped twice (so both moments are non-empty), and a generator that has
/// drawn.
struct LiveState {
  ts::Generator gen{11};
  actcomp::autograd::Variable w = actcomp::autograd::Variable::leaf(
      gen.normal(ts::Shape({2, 3}), 0.0f, 1.0f), /*requires_grad=*/true);
  actcomp::autograd::Variable b = actcomp::autograd::Variable::leaf(
      gen.normal(ts::Shape({3}), 0.0f, 1.0f), /*requires_grad=*/true);
  tr::Adam opt{{w, b}, 1e-2f};
  std::vector<nn::NamedParam> params{{"w", w}, {"b", b}};

  LiveState() {
    for (int i = 0; i < 2; ++i) {
      opt.zero_grad();
      actcomp::autograd::add(
          actcomp::autograd::mse_loss(w, ts::Tensor::zeros(ts::Shape({2, 3}))),
          actcomp::autograd::mse_loss(b, ts::Tensor::zeros(ts::Shape({3}))))
          .backward();
      opt.step();
    }
  }

  /// Every byte a restore writes: parameters, moments, Adam's step count and
  /// the RNG cursor.
  std::string bytes() const {
    return serialize(tr::capture_train_state(params, opt, gen, 0));
  }
};

/// A checkpoint of `live` with every tensor zeroed, so that a restore which
/// writes anything shows it; sent through the file format and back.
tr::Checkpoint zeroed_checkpoint(const LiveState& live) {
  tr::Checkpoint ckpt = tr::capture_train_state(live.params, live.opt, live.gen, 5);
  for (auto& [name, t] : ckpt.tensors) {
    for (float& v : t.data()) v = 0.0f;
  }
  std::istringstream is(serialize(ckpt), std::ios::binary);
  return tr::read_checkpoint(is);
}

/// Restoring `ckpt` into `live` throws std::runtime_error and writes
/// nothing.
void expect_rejected_untouched(const tr::Checkpoint& ckpt, LiveState& live) {
  const std::string before = live.bytes();
  EXPECT_THROW(tr::restore_train_state(ckpt, live.params, live.opt, live.gen),
               std::runtime_error);
  EXPECT_EQ(live.bytes(), before);
}

}  // namespace

TEST(GeneratorState, RoundTripResumesTheStream) {
  ts::Generator gen(123);
  (void)gen.normal(ts::Shape({17}), 0.0f, 1.0f);  // advance the stream
  const std::string state = gen.state();

  ts::Generator resumed(999);  // different seed; state must fully override it
  resumed.set_state(state);
  const ts::Tensor a = gen.normal(ts::Shape({32}), 0.0f, 1.0f);
  const ts::Tensor b = resumed.normal(ts::Shape({32}), 0.0f, 1.0f);
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a.data()[i], b.data()[i]);
}

TEST(GeneratorState, RejectsMalformedState) {
  ts::Generator gen(1);
  EXPECT_THROW(gen.set_state("not an engine state"), std::invalid_argument);
}

TEST(CheckpointFormat, RoundTripPreservesEverything) {
  const tr::Checkpoint ckpt = tiny_checkpoint();
  std::istringstream is(serialize(ckpt), std::ios::binary);
  const tr::Checkpoint back = tr::read_checkpoint(is);

  EXPECT_EQ(back.step, ckpt.step);
  EXPECT_EQ(back.rng_state, ckpt.rng_state);
  EXPECT_EQ(back.meta, ckpt.meta);
  ASSERT_EQ(back.tensors.size(), ckpt.tensors.size());
  for (const auto& [name, t] : ckpt.tensors) {
    ASSERT_TRUE(back.tensors.count(name)) << name;
    const ts::Tensor& r = back.tensors.at(name);
    ASSERT_EQ(r.numel(), t.numel()) << name;
    for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(r.data()[i], t.data()[i]);
  }
}

TEST(CheckpointFormat, RejectsBadMagic) {
  std::string bytes = serialize(tiny_checkpoint());
  bytes[0] = static_cast<char>(bytes[0] ^ 0xFF);
  std::istringstream is(bytes, std::ios::binary);
  try {
    tr::read_checkpoint(is);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointFormat, RejectsUnsupportedVersion) {
  std::string bytes = serialize(tiny_checkpoint());
  bytes[4] = static_cast<char>(bytes[4] + 1);  // version lives after the magic
  std::istringstream is(bytes, std::ios::binary);
  try {
    tr::read_checkpoint(is);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointFormat, RejectsTruncation) {
  const std::string bytes = serialize(tiny_checkpoint());
  // Every proper prefix must be rejected, never half-parsed. (Stride keeps
  // the loop fast; boundaries near the header are covered by the small
  // offsets.)
  for (size_t len : {size_t{0}, size_t{3}, size_t{7}, size_t{11}, size_t{20},
                     bytes.size() / 2, bytes.size() - 1}) {
    std::istringstream is(bytes.substr(0, len), std::ios::binary);
    EXPECT_THROW(tr::read_checkpoint(is), std::runtime_error) << len;
  }
}

// Forged length fields must fail on the bytes that are missing, without
// first allocating what the file claims to hold.
TEST(CheckpointFormat, ForgedPayloadLengthFailsAsTruncation) {
  // 50 bytes that claim a 2^40 - 1 byte payload and carry 7 of them.
  const std::string bytes =
      forged_header(R"({"step":0,"rng":""})", (uint64_t{1} << 40) - 1) +
      "payload";
  EXPECT_NE(load_error(bytes).find("truncated reading tensor payload"),
            std::string::npos)
      << load_error(bytes);
}

TEST(CheckpointFormat, ForgedTensorShapeFailsAsTruncation) {
  // A valid checksum over one tensor whose shape claims 2^20 x 2^20 floats
  // (4 TiB) and whose payload holds four.
  std::string payload;
  append_pod<uint32_t>(payload, 0xAC7C0301);  // tensor-map magic
  append_pod<uint64_t>(payload, 1);           // one tensor
  append_pod<uint64_t>(payload, 1);           // name length
  payload += "w";
  append_pod<uint32_t>(payload, 2);  // rank
  append_pod<int64_t>(payload, int64_t{1} << 20);
  append_pod<int64_t>(payload, int64_t{1} << 20);
  for (float f : {1.0f, 2.0f, 3.0f, 4.0f}) append_pod<float>(payload, f);
  const std::string meta = R"({"step":0,"rng":""})";
  std::string bytes = forged_header(meta, payload.size()) + payload;
  append_pod<uint64_t>(bytes, fnv1a(payload, fnv1a(meta)));
  EXPECT_NE(load_error(bytes).find("truncated tensor payload"),
            std::string::npos)
      << load_error(bytes);
}

TEST(CheckpointFormat, RejectsBitRot) {
  std::string bytes = serialize(tiny_checkpoint());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  std::istringstream is(bytes, std::ios::binary);
  try {
    tr::read_checkpoint(is);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointFormat, SaveIsAtomicAndLoadable) {
  const std::string path = temp_path("ckpt_atomic.bin");
  const tr::Checkpoint ckpt = tiny_checkpoint();
  tr::save_checkpoint(path, ckpt);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());  // tmp renamed away
  const tr::Checkpoint back = tr::load_checkpoint(path);
  EXPECT_EQ(back.step, ckpt.step);
  EXPECT_EQ(back.tensors.size(), ckpt.tensors.size());
}

TEST(CheckpointFormat, MissingFileHasPreciseError) {
  EXPECT_THROW(tr::load_checkpoint(temp_path("does_not_exist.bin")),
               std::runtime_error);
}

// Metadata whose kind as_int()/as_string() would read as 0 or "" fails the
// load; the checksum is recomputed, so only the kind can be at fault.
TEST(CheckpointFormat, ForgedMetadataOfWrongKindIsRejected) {
  ASSERT_EQ(load_error(forged_file(R"({"step":7,"rng":"","meta":{"kind":"x"}})",
                                   empty_payload())),
            "");
  const std::pair<const char*, const char*> cases[] = {
      {R"({"step":2.5,"rng":""})", "'step' must be a non-negative integer"},
      {R"({"step":"7","rng":""})", "'step' must be a non-negative integer"},
      {R"({"step":-3,"rng":""})", "'step' must be a non-negative integer"},
      {R"({"step":null,"rng":""})", "'step' must be a non-negative integer"},
      {R"({"step":7,"rng":5})", "'rng' must be a string"},
      {R"({"step":7,"rng":"","meta":{"kind":1}})", "'meta.kind' must be a string"},
      {R"({"step":7,"rng":"","meta":["x"]})", "'meta' must be an object"}};
  for (const auto& [meta, want] : cases) {
    const std::string err = load_error(forged_file(meta, empty_payload()));
    EXPECT_NE(err.find(want), std::string::npos) << meta << ": " << err;
  }
}

// A restore validates the RNG state and the optimizer step before it writes
// anything, so a bad checkpoint leaves parameters, moments and RNG as they
// were.
TEST(RestoreTrainState, MalformedRngStateLeavesStateUntouched) {
  LiveState live;
  tr::Checkpoint ckpt = zeroed_checkpoint(live);
  const std::string rng_state = ckpt.rng_state;
  ckpt.rng_state = "not an engine state";
  expect_rejected_untouched(ckpt, live);
  // With its RNG state back the same checkpoint restores, zeros and all.
  ckpt.rng_state = rng_state;
  tr::restore_train_state(ckpt, live.params, live.opt, live.gen);
  EXPECT_EQ(ts::frobenius_norm(live.w.value()) + ts::frobenius_norm(live.b.value()), 0.0f);
}

TEST(RestoreTrainState, BadOptimizerStepLeavesStateUntouched) {
  LiveState live;
  for (const char* step : {"x", "", "3x", "-1"}) {
    SCOPED_TRACE(step);
    tr::Checkpoint ckpt = zeroed_checkpoint(live);
    ckpt.meta["opt_step"] = step;
    expect_rejected_untouched(ckpt, live);
  }
}

TEST(AdamRestore, RejectsMismatchedMomentCounts) {
  ts::Generator gen(5);
  actcomp::autograd::Variable p =
      actcomp::autograd::Variable::leaf(gen.normal(ts::Shape({4}), 0.0f, 1.0f),
                                        /*requires_grad=*/true);
  tr::Adam opt({p}, 1e-3f);
  EXPECT_THROW(opt.restore_state(1, {}, {}), std::invalid_argument);
  std::vector<ts::Tensor> wrong_shape{ts::Tensor::zeros(ts::Shape({5}))};
  std::vector<ts::Tensor> ok{ts::Tensor::zeros(ts::Shape({4}))};
  EXPECT_THROW(opt.restore_state(1, wrong_shape, ok), std::invalid_argument);
}

TEST(PretrainSession, ResumeIsBitIdentical) {
  const int64_t total = 6, split = 3;

  // History A: run all 6 steps in one go.
  ts::Generator gen_a(21);
  nn::BertModel model_a(micro_config(), gen_a);
  nn::MlmHead head_a(32, dt::Vocab::kSize, gen_a);
  dt::PretrainCorpus corpus_a(16, 128, gen_a);
  tr::PretrainSession sess_a(model_a, head_a, corpus_a, micro_pretrain(total),
                             nullptr);
  EXPECT_EQ(sess_a.run_steps(total), total);
  const std::string path_a = temp_path("ckpt_a.bin");
  sess_a.save(path_a);

  // History B: run 3, checkpoint, restore into a FRESH session (identically
  // constructed), run the remaining 3.
  const std::string path_mid = temp_path("ckpt_mid.bin");
  {
    ts::Generator gen(21);
    nn::BertModel model(micro_config(), gen);
    nn::MlmHead head(32, dt::Vocab::kSize, gen);
    dt::PretrainCorpus corpus(16, 128, gen);
    tr::PretrainSession sess(model, head, corpus, micro_pretrain(total),
                             nullptr);
    EXPECT_EQ(sess.run_steps(split), split);
    sess.save(path_mid);
  }
  ts::Generator gen_b(21);
  nn::BertModel model_b(micro_config(), gen_b);
  nn::MlmHead head_b(32, dt::Vocab::kSize, gen_b);
  dt::PretrainCorpus corpus_b(16, 128, gen_b);
  tr::PretrainSession sess_b(model_b, head_b, corpus_b, micro_pretrain(total),
                             nullptr);
  sess_b.restore(path_mid);
  EXPECT_EQ(sess_b.step(), split);
  EXPECT_EQ(sess_b.run_steps(total), total - split);  // clamped to cfg.steps
  EXPECT_TRUE(sess_b.done());
  const std::string path_b = temp_path("ckpt_b.bin");
  sess_b.save(path_b);

  // The checkpoint file captures parameters, moments, step, and RNG cursor;
  // bit-identical histories produce byte-identical files.
  const std::string bytes_a = slurp(path_a);
  const std::string bytes_b = slurp(path_b);
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST(PretrainSession, RestoreRejectsMismatchedShapesUntouched) {
  ts::Generator gen(31);
  nn::BertModel model(micro_config(), gen);
  nn::MlmHead head(32, dt::Vocab::kSize, gen);
  dt::PretrainCorpus corpus(16, 128, gen);
  tr::PretrainSession sess(model, head, corpus, micro_pretrain(4), nullptr);
  sess.run_steps(2);
  const std::string path = temp_path("ckpt_shape.bin");
  sess.save(path);

  nn::BertConfig wide = micro_config();
  wide.hidden = 64;
  wide.num_heads = 4;
  wide.intermediate = 128;
  ts::Generator gen2(31);
  nn::BertModel model2(wide, gen2);
  nn::MlmHead head2(64, dt::Vocab::kSize, gen2);
  dt::PretrainCorpus corpus2(16, 128, gen2);
  tr::PretrainSession other(model2, head2, corpus2, micro_pretrain(4), nullptr);
  EXPECT_THROW(other.restore(path), std::runtime_error);
  // The failed restore must not have moved the session's cursor.
  EXPECT_EQ(other.step(), 0);
  EXPECT_EQ(other.run_steps(4), 4);  // still trainable
}

TEST(NonFiniteGuard, DivergentRunThrowsWithStepNumber) {
  ts::Generator gen(41);
  nn::BertModel model(micro_config(), gen);
  nn::MlmHead head(32, dt::Vocab::kSize, gen);
  dt::PretrainCorpus corpus(16, 128, gen);
  tr::PretrainConfig cfg = micro_pretrain(50);
  cfg.lr = 1e30f;      // guarantees overflow within a few steps
  cfg.clip_norm = 0;   // clipping off: nothing rescues the blow-up
  try {
    tr::pretrain_mlm(model, head, corpus, cfg, nullptr);
    FAIL() << "expected std::runtime_error from the non-finite-loss guard";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("non-finite loss"), std::string::npos) << what;
    EXPECT_NE(what.find("step"), std::string::npos) << what;
  }
}

TEST(NonFiniteGuard, ClippingOffStillTrainsAtSaneLr) {
  ts::Generator gen(43);
  nn::BertModel model(micro_config(), gen);
  nn::MlmHead head(32, dt::Vocab::kSize, gen);
  dt::PretrainCorpus corpus(16, 128, gen);
  tr::PretrainConfig cfg = micro_pretrain(8);
  cfg.clip_norm = 0;  // the <= 0 "disabled" path
  const auto res = tr::pretrain_mlm(model, head, corpus, cfg, nullptr);
  EXPECT_EQ(res.steps, 8);
  EXPECT_TRUE(std::isfinite(res.final_loss));
}
