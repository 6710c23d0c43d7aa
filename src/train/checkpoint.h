// Versioned, deterministic checkpoint/restore for the training plane.
//
// A checkpoint captures everything a training session needs to resume
// bit-identically: model parameters, optimizer state (Adam moments + step
// count), and the data/RNG cursor (the Generator's engine state plus the
// step counter that drives the LR schedule). The contract, enforced by
// tests/checkpoint_test.cpp, is
//
//   train(N)  ==  train(k) -> save -> restore -> train(N - k)
//
// byte-for-byte on parameters and optimizer moments, for any split point k.
//
// On-disk format (version 1, little-endian, single file):
//
//   u32  magic       0xAC7C0C4B
//   u32  version     1
//   u64  meta_len    | meta: one JSON object (obs/json dump) holding the
//   meta bytes       | step counter, the RNG state string, and free-form
//                    | string metadata
//   u64  payload_len | payload: a tensor/io.h tensor map holding the named
//   payload bytes    | parameters and the optimizer moments ("opt.m.NNN" /
//                    | "opt.v.NNN", aligned with the optimizer's parameter
//                    | order)
//   u64  checksum    FNV-1a over meta + payload
//
// load_checkpoint() rejects bad files with precise std::runtime_error
// messages ("bad checkpoint magic…", "unsupported checkpoint version…",
// "checkpoint truncated…", "checkpoint checksum mismatch…", and metadata of
// the wrong kind: a 'step' that is not a non-negative integer, an 'rng' or
// a 'meta' member that is not a string) — a corrupted or torn file can
// never be half-restored into a live model.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "nn/module.h"
#include "tensor/io.h"
#include "tensor/random.h"
#include "train/optimizer.h"

namespace actcomp::train {

inline constexpr uint32_t kCheckpointMagic = 0xAC7C0C4B;
inline constexpr uint32_t kCheckpointVersion = 1;

/// In-memory image of one checkpoint file.
struct Checkpoint {
  int64_t step = 0;             ///< steps completed when the snapshot was taken
  std::string rng_state;        ///< tensor::Generator::state()
  std::map<std::string, std::string> meta;  ///< free-form (config echo, notes)
  tensor::TensorMap tensors;    ///< parameters + optimizer moments
};

/// Serialize / deserialize the container format above. Streams must be
/// binary. Reading throws std::runtime_error on any malformed input.
void write_checkpoint(std::ostream& os, const Checkpoint& ckpt);
Checkpoint read_checkpoint(std::istream& is);

/// File convenience wrappers. save_checkpoint writes to `path` + ".tmp" and
/// renames, so a crash mid-save never leaves a torn file at `path`.
void save_checkpoint(const std::string& path, const Checkpoint& ckpt);
Checkpoint load_checkpoint(const std::string& path);

/// Assemble a Checkpoint from live training state. `params` must cover the
/// optimizer's parameters 1:1 in registration order (model first, then any
/// heads/codecs, exactly as they were added to the optimizer) — the moments
/// are stored positionally.
Checkpoint capture_train_state(const std::vector<nn::NamedParam>& params,
                               const Adam& opt, const tensor::Generator& gen,
                               int64_t step);

/// Inverse of capture_train_state: write parameter values, optimizer
/// moments, and the RNG cursor back into live objects. Throws
/// std::runtime_error naming the first missing or shape-mismatched entry,
/// a malformed RNG state, or an optimizer step that is not a non-negative
/// integer; nothing is mutated until the whole checkpoint has validated.
void restore_train_state(const Checkpoint& ckpt,
                         const std::vector<nn::NamedParam>& params, Adam& opt,
                         tensor::Generator& gen);

}  // namespace actcomp::train
