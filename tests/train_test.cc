// End-to-end trainer checks on tiny synthetic graphs: models must beat
// chance clearly, early stopping must trigger, the link/graph trainers must
// reach sensible quality and keep their recorded bits, and every trainer
// lets the train rows stand in on a split without val rows.
#include "tasks/train_node.h"

#include <functional>
#include <string>

#include "graph/synthetic.h"
#include "gtest/gtest.h"
#include "tasks/train_graph.h"
#include "tasks/train_link.h"
#include "tasks/train_node_minibatch.h"

namespace ahg {
namespace {

Graph EasyGraph(uint64_t seed) {
  SyntheticConfig cfg;
  cfg.num_nodes = 150;
  cfg.num_classes = 3;
  cfg.feature_dim = 12;
  cfg.avg_degree = 5.0;
  cfg.homophily = 0.9;
  cfg.feature_signal = 1.2;
  cfg.seed = seed;
  return GenerateSbmGraph(cfg);
}

ModelConfig SmallGcn() {
  ModelConfig cfg;
  cfg.family = ModelFamily::kGcn;
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  cfg.dropout = 0.3;
  cfg.seed = 1;
  return cfg;
}

TrainConfig FastTrain() {
  TrainConfig cfg;
  cfg.max_epochs = 60;
  cfg.patience = 10;
  cfg.learning_rate = 2e-2;
  cfg.seed = 3;
  return cfg;
}

ModelConfig SmallGin() {
  ModelConfig cfg;
  cfg.family = ModelFamily::kGin;
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  cfg.dropout = 0.2;
  cfg.seed = 10;
  return cfg;
}

GraphSet ProteinsSet(int num_graphs, uint64_t seed) {
  ProteinsLikeConfig pcfg;
  pcfg.num_graphs = num_graphs;
  pcfg.seed = seed;
  return GenerateProteinsLike(pcfg);
}

void AppendBits(const Matrix& m, std::string* out) {
  const int dims[2] = {m.rows(), m.cols()};
  out->append(reinterpret_cast<const char*>(dims), sizeof(dims));
  out->append(reinterpret_cast<const char*>(m.data()),
              m.size() * sizeof(double));
}

void AppendBits(const std::vector<Matrix>& ms, std::string* out) {
  for (const Matrix& m : ms) AppendBits(m, out);
}

template <typename T>
void AppendBits(const std::vector<T>& values, std::string* out) {
  out->append(reinterpret_cast<const char*>(values.data()),
              values.size() * sizeof(T));
}

template <typename T>
void AppendBits(const T& value, std::string* out) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

// FNV-1a over the bytes of `bits`.
uint64_t Fnv1a(const std::string& bits) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char byte : bits) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool SameBits(const std::vector<Matrix>& a, const std::vector<Matrix>& b) {
  std::string a_bits, b_bits;
  AppendBits(a, &a_bits);
  AppendBits(b, &b_bits);
  return a_bits == b_bits;
}

TEST(TrainNodeTest, GcnLearnsEasySbm) {
  Graph g = EasyGraph(1);
  Rng rng(2);
  DataSplit split = RandomSplit(g, 0.5, 0.2, &rng);
  NodeTrainResult result =
      TrainSingleNodeModel(SmallGcn(), g, split, FastTrain());
  // 3 balanced classes: chance ~0.33. A GCN on a homophilous SBM with
  // strong features should be far above that.
  EXPECT_GT(result.val_accuracy, 0.7);
  EXPECT_GT(result.test_accuracy, 0.7);
  EXPECT_EQ(result.probs.rows(), g.num_nodes());
  EXPECT_EQ(result.probs.cols(), g.num_classes());
  EXPECT_GT(result.best_epoch, 0);
  EXPECT_GT(result.train_seconds, 0.0);
}

TEST(TrainNodeTest, ProbsRowsSumToOne) {
  Graph g = EasyGraph(2);
  Rng rng(3);
  DataSplit split = RandomSplit(g, 0.5, 0.2, &rng);
  NodeTrainResult result =
      TrainSingleNodeModel(SmallGcn(), g, split, FastTrain());
  for (int r = 0; r < result.probs.rows(); ++r) {
    double total = 0.0;
    for (int c = 0; c < result.probs.cols(); ++c) {
      total += result.probs(r, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(TrainNodeTest, EarlyStoppingCapsEpochs) {
  Graph g = EasyGraph(3);
  Rng rng(4);
  DataSplit split = RandomSplit(g, 0.5, 0.2, &rng);
  TrainConfig tcfg = FastTrain();
  tcfg.max_epochs = 500;
  tcfg.patience = 3;
  NodeTrainResult result = TrainSingleNodeModel(SmallGcn(), g, split, tcfg);
  // With patience 3 on an easy task training must stop well before 500.
  EXPECT_LT(result.best_epoch, 400);
}

// Without val rows the train rows stand in and the kept epoch is the one of
// the best train accuracy, for the full-batch and the mini-batch trainer.
// Runs that differ only in max_epochs share their first epochs, so the kept
// score can only rise as max_epochs grows, and a run whose val rows are its
// train rows keeps the same epoch.
TEST(TrainNodeTest, WithoutValKeepsBestTrainAccuracyEpoch) {
  Graph g = EasyGraph(5);
  Rng rng(6);
  DataSplit split = RandomSplit(g, 0.5, 0.2, &rng);
  split.val.clear();
  DataSplit train_as_val = split;
  train_as_val.val = split.train;
  MinibatchConfig mb;
  mb.batch_size = 32;
  mb.fanout = 5;
  using Trainer =
      std::function<NodeTrainResult(const DataSplit&, const TrainConfig&)>;
  const Trainer trainers[] = {
      [&](const DataSplit& s, const TrainConfig& t) {
        return TrainSingleNodeModel(SmallGcn(), g, s, t);
      },
      [&](const DataSplit& s, const TrainConfig& t) {
        return TrainSingleNodeModelMinibatch(SmallGcn(), g, s, t, mb);
      }};
  for (int k = 0; k < 2; ++k) {
    TrainConfig tcfg = FastTrain();
    tcfg.patience = 1000;
    double first = 0.0;
    double previous = 0.0;
    for (int epochs = 1; epochs <= 15; ++epochs) {
      tcfg.max_epochs = epochs;
      const NodeTrainResult result = trainers[k](split, tcfg);
      if (epochs == 1) first = result.val_accuracy;
      EXPECT_GE(result.val_accuracy, previous)
          << "trainer " << k << ", " << epochs << " epochs";
      EXPECT_LE(result.best_epoch, epochs);
      previous = result.val_accuracy;
    }
    EXPECT_GT(previous, first) << "trainer " << k;  // it learns its train rows
    const NodeTrainResult no_val = trainers[k](split, tcfg);
    const NodeTrainResult stand_in = trainers[k](train_as_val, tcfg);
    EXPECT_EQ(no_val.best_epoch, stand_in.best_epoch) << "trainer " << k;
    EXPECT_TRUE(AllClose(no_val.probs, stand_in.probs, 0.0)) << "trainer " << k;
  }
}

TEST(TrainNodeTest, DeterministicGivenSeeds) {
  Graph g = EasyGraph(4);
  Rng rng(5);
  DataSplit split = RandomSplit(g, 0.5, 0.2, &rng);
  NodeTrainResult a = TrainSingleNodeModel(SmallGcn(), g, split, FastTrain());
  NodeTrainResult b = TrainSingleNodeModel(SmallGcn(), g, split, FastTrain());
  EXPECT_TRUE(AllClose(a.probs, b.probs, 0.0));
}

// The digest was recorded when the link trainer still ran its own epoch
// loop: FNV-1a over the kept scores, both AUCs and the kept encoder weights.
TEST(TrainLinkTest, GcnEncoderBeatsChanceAuc) {
  Graph g = EasyGraph(6);
  Rng rng(7);
  LinkSplit split = MakeLinkSplit(g, 0.1, 0.15, &rng);
  ModelConfig mcfg = SmallGcn();
  mcfg.dropout = 0.1;
  TrainConfig tcfg = FastTrain();
  std::vector<Matrix> params;
  LinkTrainResult result = TrainLinkModel(mcfg, split, tcfg, &params);
  EXPECT_GT(result.val_auc, 0.6);
  EXPECT_GT(result.test_auc, 0.6);
  EXPECT_EQ(result.test_scores.size(),
            split.test_pos.size() + split.test_neg.size());
  std::string bits;
  AppendBits(result.val_scores, &bits);
  AppendBits(result.test_scores, &bits);
  AppendBits(result.val_auc, &bits);
  AppendBits(result.test_auc, &bits);
  AppendBits(params, &bits);
  EXPECT_EQ(Fnv1a(bits), 0x513c69881c80e2f3ULL) << std::hex << Fnv1a(bits);
}

// Without val pairs the train pairs stand in: the kept encoder equals, bit
// for bit, that of a run whose val pairs are its train pairs. Without test
// pairs there is no test AUC to take.
TEST(TrainLinkTest, WithoutValPairsScoresTrainPairs) {
  Graph g = EasyGraph(6);
  Rng rng(7);
  LinkSplit no_val = MakeLinkSplit(g, 0.0, 0.15, &rng);
  ASSERT_TRUE(no_val.val_pos.empty());
  LinkSplit train_as_val = no_val;
  train_as_val.val_pos = no_val.train_pos;
  train_as_val.val_neg = no_val.train_neg;
  ModelConfig mcfg = SmallGcn();
  mcfg.dropout = 0.1;
  std::vector<Matrix> no_val_params, stand_in_params;
  const LinkTrainResult result =
      TrainLinkModel(mcfg, no_val, FastTrain(), &no_val_params);
  const LinkTrainResult stand_in =
      TrainLinkModel(mcfg, train_as_val, FastTrain(), &stand_in_params);
  EXPECT_TRUE(SameBits(no_val_params, stand_in_params));
  EXPECT_EQ(result.val_auc, stand_in.val_auc);
  EXPECT_GT(result.val_auc, 0.6);
  EXPECT_TRUE(result.val_scores.empty());
  EXPECT_EQ(result.test_scores, stand_in.test_scores);

  LinkSplit no_test = no_val;
  no_test.test_pos.clear();
  no_test.test_neg.clear();
  std::vector<Matrix> no_test_params;
  const LinkTrainResult untested =
      TrainLinkModel(mcfg, no_test, FastTrain(), &no_test_params);
  EXPECT_TRUE(SameBits(no_test_params, no_val_params));
  EXPECT_EQ(untested.test_auc, 0.0);
  EXPECT_TRUE(untested.test_scores.empty());
}

TEST(TrainLinkTest, LinkLabelsLayout) {
  std::vector<int> labels = LinkLabels(2, 3);
  EXPECT_EQ(labels, (std::vector<int>{1, 1, 0, 0, 0}));
}

// The digest was recorded when the graph trainer still ran its own epoch
// loop: FNV-1a over the kept probs, both accuracies and the kept weights.
TEST(TrainGraphTest, GinSeparatesDensityClasses) {
  GraphSet set = ProteinsSet(60, 8);
  Rng rng(9);
  GraphSetSplit split = RandomGraphSetSplit(set, 0.6, 0.2, &rng);
  std::vector<Matrix> params;
  GraphTrainResult result =
      TrainGraphClassifier(SmallGin(), set, split, FastTrain(), &params);
  EXPECT_GT(result.val_accuracy, 0.7);
  EXPECT_GT(result.test_accuracy, 0.7);
  EXPECT_EQ(result.probs.rows(), static_cast<int>(set.graphs.size()));
  std::string bits;
  AppendBits(result.probs, &bits);
  AppendBits(result.val_accuracy, &bits);
  AppendBits(result.test_accuracy, &bits);
  AppendBits(params, &bits);
  EXPECT_EQ(Fnv1a(bits), 0xd11fd023e6e13a79ULL) << std::hex << Fnv1a(bits);
}

// Without val graphs the train graphs stand in, as in the node trainers:
// the kept train accuracy can only rise with max_epochs, and the kept
// weights equal those of a run whose val graphs are its train graphs.
TEST(TrainGraphTest, WithoutValKeepsBestTrainAccuracyEpoch) {
  GraphSet set = ProteinsSet(60, 8);
  Rng rng(9);
  GraphSetSplit split = RandomGraphSetSplit(set, 0.6, 0.0, &rng);
  ASSERT_TRUE(split.val.empty());
  TrainConfig tcfg = FastTrain();
  tcfg.patience = 1000;
  double first = 0.0;
  double previous = 0.0;
  for (int epochs : {1, 5, 20, 40}) {
    tcfg.max_epochs = epochs;
    const GraphTrainResult result =
        TrainGraphClassifier(SmallGin(), set, split, tcfg);
    if (epochs == 1) first = result.val_accuracy;
    EXPECT_GE(result.val_accuracy, previous) << epochs << " epochs";
    previous = result.val_accuracy;
  }
  EXPECT_GT(previous, first);
  GraphSetSplit train_as_val = split;
  train_as_val.val = split.train;
  std::vector<Matrix> no_val_params, stand_in_params;
  const GraphTrainResult no_val =
      TrainGraphClassifier(SmallGin(), set, split, tcfg, &no_val_params);
  const GraphTrainResult stand_in = TrainGraphClassifier(
      SmallGin(), set, train_as_val, tcfg, &stand_in_params);
  EXPECT_TRUE(SameBits(no_val_params, stand_in_params));
  EXPECT_EQ(no_val.val_accuracy, stand_in.val_accuracy);
  EXPECT_TRUE(AllClose(no_val.probs, stand_in.probs, 0.0));
}

TEST(TrainGraphTest, SplitPartitionsSet) {
  GraphSet set = ProteinsSet(30, 11);
  Rng rng(12);
  GraphSetSplit split = RandomGraphSetSplit(set, 0.5, 0.25, &rng);
  EXPECT_EQ(split.train.size() + split.val.size() + split.test.size(), 30u);
}

}  // namespace
}  // namespace ahg
