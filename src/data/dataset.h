// Batching: packing Examples into padded EncoderInputs.
//
// Pairs are packed BERT-style as [CLS] a… [SEP] b… [SEP] with segment ids
// 0/1, truncated and padded to a fixed sequence length.
#pragma once

#include <cstdint>
#include <vector>

#include "data/tasks.h"
#include "nn/bert.h"
#include "tensor/random.h"

namespace actcomp::data {

struct LabeledBatch {
  nn::EncoderInput input;
  std::vector<int64_t> class_labels;  ///< classification tasks
  std::vector<float> value_labels;    ///< regression tasks
};

class TaskDataset {
 public:
  TaskDataset(TaskId task, std::vector<Example> examples, int64_t max_seq);

  int64_t size() const { return static_cast<int64_t>(examples_.size()); }
  TaskId task() const { return task_; }

  /// Pack examples [begin, end) (clamped) into one padded batch.
  LabeledBatch batch(int64_t begin, int64_t end) const;

  /// All batches of `batch_size`, optionally shuffling example order first.
  std::vector<LabeledBatch> epoch_batches(int64_t batch_size,
                                          tensor::Generator* shuffle_gen) const;

 private:
  TaskId task_;
  std::vector<Example> examples_;
  int64_t max_seq_;
  mutable std::vector<int64_t> order_;  // shuffled view into examples_
};

/// Convenience: generate + wrap a dataset in one call.
TaskDataset make_task_dataset(TaskId task, int64_t count, int64_t max_seq,
                              tensor::Generator& gen);

}  // namespace actcomp::data
