#include "train/checkpoint.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "tensor/check.h"

namespace actcomp::train {

namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw std::runtime_error("checkpoint: " + msg);
}

template <typename T>
void write_pod(std::ostream& os, T v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is, const char* what) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) fail(std::string("checkpoint truncated reading ") + what);
  return v;
}

/// FNV-1a 64-bit over a byte string — cheap, dependency-free, and enough to
/// catch truncation and bit rot (this is an integrity check, not a MAC).
uint64_t fnv1a(std::string_view bytes, uint64_t h = 0xcbf29ce484222325ull) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string read_block(std::istream& is, uint64_t len, const char* what) {
  // Grow the block by at most 1 MiB per read, so its size tracks the bytes
  // the stream holds, not what a forged length prefix claims.
  std::string block;
  while (block.size() < len) {
    const size_t have = block.size();
    block.resize(have + std::min<uint64_t>(len - have, uint64_t{1} << 20));
    is.read(block.data() + have,
            static_cast<std::streamsize>(block.size() - have));
    if (!is) fail(std::string("checkpoint truncated reading ") + what);
  }
  return block;
}

std::string moment_name(const char* which, size_t i) {
  std::ostringstream os;
  os << "opt." << which << "." << i;
  return os.str();
}

}  // namespace

void write_checkpoint(std::ostream& os, const Checkpoint& ckpt) {
  ACTCOMP_PROFILE("train.checkpoint.save");
  obs::json::Value meta = obs::json::Value::object();
  meta.set("step", ckpt.step);
  meta.set("rng", ckpt.rng_state);
  obs::json::Value extra = obs::json::Value::object();
  for (const auto& [k, v] : ckpt.meta) extra.set(k, v);
  meta.set("meta", std::move(extra));
  const std::string meta_bytes = meta.dump();

  std::ostringstream payload_os;
  tensor::write_tensor_map(payload_os, ckpt.tensors);
  const std::string payload = payload_os.str();

  write_pod<uint32_t>(os, kCheckpointMagic);
  write_pod<uint32_t>(os, kCheckpointVersion);
  write_pod<uint64_t>(os, meta_bytes.size());
  os.write(meta_bytes.data(), static_cast<std::streamsize>(meta_bytes.size()));
  write_pod<uint64_t>(os, payload.size());
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  write_pod<uint64_t>(os, fnv1a(payload, fnv1a(meta_bytes)));
  obs::Registry::instance().counter("train.checkpoint.bytes").add(
      static_cast<int64_t>(meta_bytes.size() + payload.size()));
}

Checkpoint read_checkpoint(std::istream& is) {
  ACTCOMP_PROFILE("train.checkpoint.restore");
  const auto magic = read_pod<uint32_t>(is, "magic");
  if (magic != kCheckpointMagic) {
    std::ostringstream os;
    os << "bad checkpoint magic 0x" << std::hex << magic
       << " — not an actcomp checkpoint";
    fail(os.str());
  }
  const auto version = read_pod<uint32_t>(is, "version");
  if (version != kCheckpointVersion) {
    std::ostringstream os;
    os << "unsupported checkpoint version " << version << " (this build reads "
       << kCheckpointVersion << ")";
    fail(os.str());
  }
  const auto meta_len = read_pod<uint64_t>(is, "metadata length");
  const std::string meta_bytes = read_block(is, meta_len, "metadata");
  const auto payload_len = read_pod<uint64_t>(is, "payload length");
  const std::string payload = read_block(is, payload_len, "tensor payload");
  const auto stored = read_pod<uint64_t>(is, "checksum");
  const uint64_t computed = fnv1a(payload, fnv1a(meta_bytes));
  if (stored != computed) {
    std::ostringstream os;
    os << "checkpoint checksum mismatch (stored 0x" << std::hex << stored
       << ", computed 0x" << computed << ") — file corrupted";
    fail(os.str());
  }

  std::string err;
  const obs::json::Value meta = obs::json::Value::parse(meta_bytes, &err);
  if (meta.kind() != obs::json::Kind::kObject) {
    fail("malformed checkpoint metadata: " + err);
  }
  const obs::json::Value* step = meta.find("step");
  const obs::json::Value* rng = meta.find("rng");
  if (step == nullptr || rng == nullptr) {
    fail("checkpoint metadata missing 'step' or 'rng'");
  }
  // as_int()/as_string() read 0 and "" from a value of another kind, so the
  // kinds are checked before anything is read.
  if (step->kind() != obs::json::Kind::kInt || step->as_int() < 0) {
    fail("checkpoint metadata 'step' must be a non-negative integer, got " +
         step->dump());
  }
  if (rng->kind() != obs::json::Kind::kString) {
    fail("checkpoint metadata 'rng' must be a string, got " + rng->dump());
  }

  Checkpoint ckpt;
  ckpt.step = step->as_int();
  ckpt.rng_state = rng->as_string();
  if (const obs::json::Value* extra = meta.find("meta")) {
    if (extra->kind() != obs::json::Kind::kObject) {
      fail("checkpoint metadata 'meta' must be an object, got " + extra->dump());
    }
    for (const auto& [k, v] : extra->members()) {
      if (v.kind() != obs::json::Kind::kString) {
        fail("checkpoint metadata 'meta." + k + "' must be a string, got " +
             v.dump());
      }
      ckpt.meta[k] = v.as_string();
    }
  }
  std::istringstream payload_is(payload);
  try {
    ckpt.tensors = tensor::read_tensor_map(payload_is);
  } catch (const std::exception& e) {
    fail(std::string("bad tensor payload: ") + e.what());
  }
  return ckpt;
}

void save_checkpoint(const std::string& path, const Checkpoint& ckpt) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary);
    if (!os.is_open()) fail("cannot open " + tmp + " for writing");
    write_checkpoint(os, ckpt);
    if (!os) fail("write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    fail("cannot rename " + tmp + " to " + path);
  }
  obs::Registry::instance().counter("train.checkpoint.saves").add();
}

Checkpoint load_checkpoint(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) fail("cannot open " + path + " for reading");
  Checkpoint ckpt = read_checkpoint(is);
  obs::Registry::instance().counter("train.checkpoint.restores").add();
  return ckpt;
}

Checkpoint capture_train_state(const std::vector<nn::NamedParam>& params,
                               const Adam& opt, const tensor::Generator& gen,
                               int64_t step) {
  ACTCOMP_CHECK(params.size() == opt.num_parameters(),
                "named parameter count " << params.size()
                                         << " != optimizer parameter count "
                                         << opt.num_parameters());
  Checkpoint ckpt;
  ckpt.step = step;
  ckpt.rng_state = gen.state();
  for (const auto& [name, p] : params) {
    ACTCOMP_CHECK(!ckpt.tensors.count(name),
                  "duplicate parameter name '" << name << "'");
    ckpt.tensors.emplace(name, p.value().clone());
  }
  // Moments are positional (the optimizer's registration order); lazily
  // uninitialized moments serialize as 0-element tensors.
  const auto& m = opt.exp_avg();
  const auto& v = opt.exp_avg_sq();
  for (size_t i = 0; i < params.size(); ++i) {
    ckpt.tensors.emplace(moment_name("m", i),
                         i < m.size() ? m[i].clone() : tensor::Tensor());
    ckpt.tensors.emplace(moment_name("v", i),
                         i < v.size() ? v[i].clone() : tensor::Tensor());
  }
  ckpt.meta["opt_step"] = std::to_string(opt.step_count());
  return ckpt;
}

void restore_train_state(const Checkpoint& ckpt,
                         const std::vector<nn::NamedParam>& params, Adam& opt,
                         tensor::Generator& gen) {
  if (params.size() != opt.num_parameters()) {
    std::ostringstream os;
    os << "named parameter count " << params.size()
       << " != optimizer parameter count " << opt.num_parameters();
    fail(os.str());
  }
  // Validate everything before mutating anything: a failed restore must
  // leave the live model untouched.
  for (const auto& [name, p] : params) {
    const auto it = ckpt.tensors.find(name);
    if (it == ckpt.tensors.end()) fail("missing parameter '" + name + "'");
    if (!(it->second.shape() == p.value().shape())) {
      std::ostringstream os;
      os << "shape mismatch for '" << name << "': checkpoint "
         << it->second.shape().str() << ", model " << p.value().shape().str();
      fail(os.str());
    }
  }
  std::vector<tensor::Tensor> m(params.size());
  std::vector<tensor::Tensor> v(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    const int64_t numel = params[i].second.value().numel();
    const auto im = ckpt.tensors.find(moment_name("m", i));
    const auto iv = ckpt.tensors.find(moment_name("v", i));
    if (im == ckpt.tensors.end() || iv == ckpt.tensors.end()) {
      fail("missing optimizer moment " + moment_name("m", i) + " — checkpoint "
           "was captured for a different parameter set");
    }
    if (im->second.numel() != 0 && im->second.numel() != numel) {
      std::ostringstream os;
      os << "optimizer moment " << moment_name("m", i) << " has "
         << im->second.numel() << " elements, parameter '" << params[i].first
         << "' has " << numel;
      fail(os.str());
    }
    if (iv->second.numel() != 0 && iv->second.numel() != numel) {
      std::ostringstream os;
      os << "optimizer moment " << moment_name("v", i) << " has "
         << iv->second.numel() << " elements, parameter '" << params[i].first
         << "' has " << numel;
      fail(os.str());
    }
    m[i] = im->second.clone();
    v[i] = iv->second.clone();
  }
  int64_t opt_step = 0;
  if (const auto it = ckpt.meta.find("opt_step"); it != ckpt.meta.end()) {
    const std::string& s = it->second;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), opt_step);
    if (ec != std::errc() || end != s.data() + s.size() || opt_step < 0) {
      fail("optimizer step '" + s + "' is not a non-negative integer");
    }
  }
  tensor::Generator restored(0);
  try {
    restored.set_state(ckpt.rng_state);
  } catch (const std::invalid_argument&) {
    fail("malformed RNG state (" + std::to_string(ckpt.rng_state.size()) +
         " bytes)");
  }

  // Everything has validated: restore_state cannot throw from here on.
  opt.restore_state(opt_step, std::move(m), std::move(v));
  for (const auto& [name, p] : params) {
    autograd::Variable handle = p;
    handle.mutable_value() = ckpt.tensors.at(name).clone();
  }
  gen = restored;
}

}  // namespace actcomp::train
