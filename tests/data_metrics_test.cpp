// Tests for the metrics implementations (against hand-checked values) and
// the synthetic data plane (generator invariants, batching, MLM masking).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "data/dataset.h"
#include "data/pretrain.h"
#include "data/tasks.h"
#include "data/vocab.h"
#include "metrics/metrics.h"
#include "tensor/random.h"

namespace dt = actcomp::data;
namespace mt = actcomp::metrics;
namespace ts = actcomp::tensor;

// ---------- metrics ----------

TEST(Metrics, Accuracy) {
  EXPECT_DOUBLE_EQ(mt::accuracy({1, 0, 1, 1}, {1, 0, 0, 1}), 0.75);
  EXPECT_DOUBLE_EQ(mt::accuracy({0}, {0}), 1.0);
  EXPECT_THROW(mt::accuracy({1}, {1, 2}), std::invalid_argument);
  EXPECT_THROW(mt::accuracy({}, {}), std::invalid_argument);
}

TEST(Metrics, F1HandChecked) {
  // pred: 1,1,0,1  label: 1,0,1,1 -> tp=2, fp=1, fn=1 -> F1 = 2*2/(4+1+1)=2/3
  EXPECT_NEAR(mt::f1_binary({1, 1, 0, 1}, {1, 0, 1, 1}), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(mt::f1_binary({0, 0}, {0, 0}), 0.0);  // degenerate convention
  EXPECT_DOUBLE_EQ(mt::f1_binary({1, 1}, {1, 1}), 1.0);
}

TEST(Metrics, MatthewsHandChecked) {
  // Perfect prediction -> 1, inverted -> -1.
  EXPECT_DOUBLE_EQ(mt::matthews_corrcoef({1, 0, 1, 0}, {1, 0, 1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(mt::matthews_corrcoef({0, 1, 0, 1}, {1, 0, 1, 0}), -1.0);
  // tp=1 tn=1 fp=1 fn=1 -> 0.
  EXPECT_DOUBLE_EQ(mt::matthews_corrcoef({1, 1, 0, 0}, {1, 0, 1, 0}), 0.0);
  // Constant predictor -> 0 by convention.
  EXPECT_DOUBLE_EQ(mt::matthews_corrcoef({1, 1, 1}, {1, 0, 1}), 0.0);
}

TEST(Metrics, PearsonHandChecked) {
  EXPECT_NEAR(mt::pearson({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(mt::pearson({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(mt::pearson({1, 1, 1}, {1, 2, 3}), 0.0);  // zero variance
}

TEST(Metrics, SpearmanIsRankBased) {
  // Monotone but non-linear relation: Spearman 1, Pearson < 1.
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {1, 8, 27, 64, 125};
  EXPECT_NEAR(mt::spearman(x, y), 1.0, 1e-12);
  EXPECT_LT(mt::pearson(x, y), 1.0);
}

TEST(Metrics, SpearmanHandlesTies) {
  // x = {1,2,2,3}, y = {1,2,3,4}: ranks x = {1, 2.5, 2.5, 4}.
  const double r = mt::spearman({1, 2, 2, 3}, {1, 2, 3, 4});
  EXPECT_GT(r, 0.9);
  EXPECT_LT(r, 1.0);
}

// ---------- task generators ----------

TEST(Tasks, RegistryCoversNineColumns) {
  EXPECT_EQ(dt::all_tasks().size(), 9u);
  EXPECT_EQ(dt::task_info(dt::TaskId::kCola).metric, dt::MetricKind::kMatthews);
  EXPECT_EQ(dt::task_info(dt::TaskId::kQqp).metric, dt::MetricKind::kF1);
  EXPECT_EQ(dt::task_info(dt::TaskId::kStsb).num_classes, 0);
  EXPECT_EQ(dt::task_info(dt::TaskId::kMnliM).num_classes, 3);
}

TEST(Tasks, GeneratorsAreDeterministic) {
  ts::Generator g1(5), g2(5);
  const auto a = dt::generate_examples(dt::TaskId::kSst2, 20, 12, g1);
  const auto b = dt::generate_examples(dt::TaskId::kSst2, 20, 12, g2);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tokens_a, b[i].tokens_a);
    EXPECT_EQ(a[i].label_class, b[i].label_class);
  }
}

TEST(Tasks, LabelsRoughlyBalanced) {
  ts::Generator gen(6);
  for (dt::TaskId id : {dt::TaskId::kSst2, dt::TaskId::kCola, dt::TaskId::kQqp,
                        dt::TaskId::kRte, dt::TaskId::kQnli}) {
    const auto ex = dt::generate_examples(id, 600, 12, gen);
    int64_t ones = 0;
    for (const auto& e : ex) ones += e.label_class == 1;
    EXPECT_NEAR(static_cast<double>(ones), 300.0, 75.0)
        << dt::task_info(id).name;
  }
}

TEST(Tasks, MnliHasThreeClasses) {
  ts::Generator gen(7);
  const auto ex = dt::generate_examples(dt::TaskId::kMnliM, 300, 12, gen);
  std::set<int64_t> classes;
  for (const auto& e : ex) classes.insert(e.label_class);
  EXPECT_EQ(classes, (std::set<int64_t>{0, 1, 2}));
}

TEST(Tasks, MnliEntailmentIsSubset) {
  ts::Generator gen(8);
  for (const auto& e : dt::generate_examples(dt::TaskId::kMnliM, 200, 12, gen)) {
    if (e.label_class != 0) continue;
    std::multiset<int64_t> premise(e.tokens_a.begin(), e.tokens_a.end());
    for (int64_t t : e.tokens_b) {
      auto it = premise.find(t);
      ASSERT_NE(it, premise.end()) << "entailed token not in premise";
      premise.erase(it);
    }
  }
}

TEST(Tasks, MnliContradictionCarriesNegMarker) {
  ts::Generator gen(9);
  for (const auto& e : dt::generate_examples(dt::TaskId::kMnliM, 200, 12, gen)) {
    const bool has_neg =
        std::find(e.tokens_b.begin(), e.tokens_b.end(), dt::Vocab::kNeg) !=
        e.tokens_b.end();
    EXPECT_EQ(has_neg, e.label_class == 2);
  }
}

TEST(Tasks, ColaPositivesFollowAlternation) {
  ts::Generator gen(10);
  const int64_t half = dt::Vocab::kTopicWords / 2;
  for (const auto& e : dt::generate_examples(dt::TaskId::kCola, 200, 12, gen)) {
    if (e.label_class != 1) continue;
    for (size_t i = 0; i < e.tokens_a.size(); ++i) {
      const int64_t off = (e.tokens_a[i] - dt::Vocab::kTopicBegin) %
                          dt::Vocab::kTopicWords;
      EXPECT_EQ(off < half, i % 2 == 0) << "position " << i;
    }
  }
}

TEST(Tasks, QqpParaphraseSharesTopic) {
  ts::Generator gen(11);
  for (const auto& e : dt::generate_examples(dt::TaskId::kQqp, 100, 12, gen)) {
    if (e.label_class != 1) continue;
    // Every topic word in B must share A's dominant topic.
    std::vector<int64_t> topics;
    for (int64_t t : e.tokens_a) {
      if (dt::Vocab::is_topic_word(t)) topics.push_back(dt::Vocab::topic_of(t));
    }
    ASSERT_FALSE(topics.empty());
    const int64_t topic = topics.front();
    for (int64_t t : e.tokens_b) {
      if (dt::Vocab::is_topic_word(t)) {
        EXPECT_EQ(dt::Vocab::topic_of(t), topic);
      }
    }
  }
}

TEST(Tasks, StsbLabelTracksOverlap) {
  ts::Generator gen(12);
  for (const auto& e : dt::generate_examples(dt::TaskId::kStsb, 100, 12, gen)) {
    EXPECT_GE(e.label_value, 0.0f);
    EXPECT_LE(e.label_value, 5.0f);
    // Count actual overlap.
    std::multiset<int64_t> a(e.tokens_a.begin(), e.tokens_a.end());
    int64_t shared = 0;
    for (int64_t t : e.tokens_b) {
      auto it = a.find(t);
      if (it != a.end()) {
        ++shared;
        a.erase(it);
      }
    }
    const double claimed =
        static_cast<double>(e.label_value) / 5.0 * static_cast<double>(e.tokens_a.size());
    EXPECT_NEAR(static_cast<double>(shared), claimed, 1.0 + claimed * 0.1);
  }
}

TEST(Tasks, TokenIdsWithinVocab) {
  ts::Generator gen(13);
  for (const dt::TaskInfo& info : dt::all_tasks()) {
    for (const auto& e : dt::generate_examples(info.id, 50, 12, gen)) {
      for (int64_t t : e.tokens_a) {
        EXPECT_GE(t, 0);
        EXPECT_LT(t, dt::Vocab::kSize);
      }
      for (int64_t t : e.tokens_b) {
        EXPECT_GE(t, 0);
        EXPECT_LT(t, dt::Vocab::kSize);
      }
    }
  }
}

// ---------- batching ----------

TEST(Dataset, BatchLayout) {
  ts::Generator gen(14);
  dt::TaskDataset ds = dt::make_task_dataset(dt::TaskId::kQqp, 10, 24, gen);
  const dt::LabeledBatch b = ds.batch(0, 4);
  EXPECT_EQ(b.input.batch, 4);
  EXPECT_EQ(b.input.seq, 24);
  EXPECT_EQ(b.input.token_ids.size(), 96u);
  EXPECT_EQ(b.class_labels.size(), 4u);
  // Row 0: [CLS] ... [SEP] ... [SEP] then padding; segments 0 then 1.
  EXPECT_EQ(b.input.token_ids[0], dt::Vocab::kCls);
  const int64_t len = b.input.lengths[0];
  ASSERT_GT(len, 4);
  EXPECT_EQ(b.input.token_ids[static_cast<size_t>(len - 1)], dt::Vocab::kSep);
  for (int64_t i = len; i < 24; ++i) {
    EXPECT_EQ(b.input.token_ids[static_cast<size_t>(i)], dt::Vocab::kPad);
  }
  EXPECT_EQ(b.input.segment_ids[static_cast<size_t>(len - 1)], 1);
  EXPECT_EQ(b.input.segment_ids[1], 0);
}

TEST(Dataset, SingleSentenceTaskHasNoSegmentOne) {
  ts::Generator gen(15);
  dt::TaskDataset ds = dt::make_task_dataset(dt::TaskId::kSst2, 5, 24, gen);
  const dt::LabeledBatch b = ds.batch(0, 5);
  for (int64_t s : b.input.segment_ids) EXPECT_EQ(s, 0);
}

TEST(Dataset, EpochCoversAllExamplesOnce) {
  ts::Generator gen(16);
  dt::TaskDataset ds = dt::make_task_dataset(dt::TaskId::kSst2, 23, 16, gen);
  const auto batches = ds.epoch_batches(8, nullptr);
  ASSERT_EQ(batches.size(), 3u);
  int64_t total = 0;
  for (const auto& b : batches) total += b.input.batch;
  EXPECT_EQ(total, 23);
}

TEST(Dataset, ShuffleChangesOrderButNotMultiset) {
  ts::Generator gen(17);
  dt::TaskDataset ds = dt::make_task_dataset(dt::TaskId::kSst2, 64, 16, gen);
  const auto b1 = ds.epoch_batches(64, nullptr);
  ts::Generator sg(3);
  const auto b2 = ds.epoch_batches(64, &sg);
  EXPECT_NE(b1[0].input.token_ids, b2[0].input.token_ids);
  std::multiset<int64_t> l1(b1[0].class_labels.begin(), b1[0].class_labels.end());
  std::multiset<int64_t> l2(b2[0].class_labels.begin(), b2[0].class_labels.end());
  EXPECT_EQ(l1, l2);
}

TEST(Dataset, EmptyBatchThrows) {
  ts::Generator gen(18);
  dt::TaskDataset ds = dt::make_task_dataset(dt::TaskId::kSst2, 4, 16, gen);
  EXPECT_THROW(ds.batch(4, 4), std::invalid_argument);
}

// ---------- pretraining corpus ----------

TEST(Pretrain, CorpusShape) {
  ts::Generator gen(19);
  dt::PretrainCorpus corpus(8, 128, gen);
  EXPECT_EQ(corpus.num_docs(), 8);
  EXPECT_EQ(corpus.doc(0).size(), 128u);
  EXPECT_THROW(corpus.doc(8), std::invalid_argument);
}

TEST(Pretrain, MlmBatchMaskingStatistics) {
  ts::Generator gen(20);
  dt::PretrainCorpus corpus(16, 256, gen);
  int64_t masked = 0, mask_token = 0, total = 0;
  for (int rep = 0; rep < 20; ++rep) {
    const dt::MlmBatch b = corpus.sample_mlm_batch(8, 32, gen);
    ASSERT_EQ(b.labels.size(), b.input.token_ids.size());
    for (size_t i = 0; i < b.labels.size(); ++i) {
      if (i % 32 == 0) {
        EXPECT_EQ(b.input.token_ids[i], dt::Vocab::kCls);
        EXPECT_EQ(b.labels[i], dt::MlmBatch::kIgnore);
        continue;
      }
      ++total;
      if (b.labels[i] != dt::MlmBatch::kIgnore) {
        ++masked;
        mask_token += b.input.token_ids[i] == dt::Vocab::kMask;
      }
    }
  }
  const double mask_rate = static_cast<double>(masked) / static_cast<double>(total);
  EXPECT_NEAR(mask_rate, 0.15, 0.02);
  // ~80% of masked positions show [MASK].
  EXPECT_NEAR(static_cast<double>(mask_token) / static_cast<double>(masked), 0.8, 0.05);
}

TEST(Pretrain, LabelsHoldOriginalTokens) {
  ts::Generator gen(21);
  dt::PretrainCorpus corpus(4, 64, gen);
  const dt::MlmBatch b = corpus.sample_mlm_batch(4, 16, gen);
  for (size_t i = 0; i < b.labels.size(); ++i) {
    if (b.labels[i] == dt::MlmBatch::kIgnore) continue;
    EXPECT_GE(b.labels[i], 0);
    EXPECT_LT(b.labels[i], dt::Vocab::kSize);
  }
}
