// End-to-end trainer checks on tiny synthetic graphs: models must beat
// chance clearly, early stopping must trigger, and the link/graph trainers
// must reach sensible quality.
#include "tasks/train_node.h"

#include "graph/synthetic.h"
#include "gtest/gtest.h"
#include "tasks/train_graph.h"
#include "tasks/train_link.h"

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
// the best train accuracy. Runs that differ only in max_epochs share their
// first epochs, so the kept score can only rise as max_epochs grows.
TEST(TrainNodeTest, WithoutValKeepsBestTrainAccuracyEpoch) {
  Graph g = EasyGraph(5);
  Rng rng(6);
  DataSplit split = RandomSplit(g, 0.5, 0.2, &rng);
  split.val.clear();
  TrainConfig tcfg = FastTrain();
  tcfg.patience = 1000;
  double first = 0.0;
  double previous = 0.0;
  for (int epochs = 1; epochs <= 15; ++epochs) {
    tcfg.max_epochs = epochs;
    const NodeTrainResult result =
        TrainSingleNodeModel(SmallGcn(), g, split, tcfg);
    if (epochs == 1) first = result.val_accuracy;
    EXPECT_GE(result.val_accuracy, previous) << epochs << " epochs";
    EXPECT_LE(result.best_epoch, epochs);
    previous = result.val_accuracy;
  }
  EXPECT_GT(previous, first);  // the GCN learns its train rows
}

TEST(TrainNodeTest, DeterministicGivenSeeds) {
  Graph g = EasyGraph(4);
  Rng rng(5);
  DataSplit split = RandomSplit(g, 0.5, 0.2, &rng);
  NodeTrainResult a = TrainSingleNodeModel(SmallGcn(), g, split, FastTrain());
  NodeTrainResult b = TrainSingleNodeModel(SmallGcn(), g, split, FastTrain());
  EXPECT_TRUE(AllClose(a.probs, b.probs, 0.0));
}

TEST(TrainNodeTest, GridSearchReturnsBestOfGrid) {
  Graph g = EasyGraph(5);
  Rng rng(6);
  DataSplit split = RandomSplit(g, 0.5, 0.2, &rng);
  GridSearchSpace space;
  space.learning_rates = {1e-2, 1e-4};  // 1e-4 should undertrain
  space.dropouts = {0.3};
  ModelConfig best_mcfg;
  TrainConfig best_tcfg;
  TrainConfig tcfg = FastTrain();
  tcfg.max_epochs = 30;
  NodeTrainResult best = GridSearchTrain(SmallGcn(), g, split, tcfg, space,
                                         &best_mcfg, &best_tcfg);
  NodeTrainResult slow;
  {
    TrainConfig t2 = tcfg;
    t2.learning_rate = 1e-4;
    ModelConfig m2 = SmallGcn();
    m2.dropout = 0.3;
    slow = TrainSingleNodeModel(m2, g, split, t2);
  }
  EXPECT_GE(best.val_accuracy, slow.val_accuracy);
  EXPECT_EQ(best_mcfg.dropout, 0.3);
}

TEST(TrainLinkTest, GcnEncoderBeatsChanceAuc) {
  Graph g = EasyGraph(6);
  Rng rng(7);
  LinkSplit split = MakeLinkSplit(g, 0.1, 0.15, &rng);
  ModelConfig mcfg = SmallGcn();
  mcfg.dropout = 0.1;
  TrainConfig tcfg = FastTrain();
  LinkTrainResult result = TrainLinkModel(mcfg, split, tcfg);
  EXPECT_GT(result.val_auc, 0.6);
  EXPECT_GT(result.test_auc, 0.6);
  EXPECT_EQ(result.test_scores.size(),
            split.test_pos.size() + split.test_neg.size());
}

TEST(TrainLinkTest, LinkLabelsLayout) {
  std::vector<int> labels = LinkLabels(2, 3);
  EXPECT_EQ(labels, (std::vector<int>{1, 1, 0, 0, 0}));
}

TEST(TrainGraphTest, GinSeparatesDensityClasses) {
  ProteinsLikeConfig pcfg;
  pcfg.num_graphs = 60;
  pcfg.seed = 8;
  GraphSet set = GenerateProteinsLike(pcfg);
  Rng rng(9);
  GraphSetSplit split = RandomGraphSetSplit(set, 0.6, 0.2, &rng);
  ModelConfig mcfg;
  mcfg.family = ModelFamily::kGin;
  mcfg.hidden_dim = 16;
  mcfg.num_layers = 2;
  mcfg.dropout = 0.2;
  mcfg.seed = 10;
  GraphTrainResult result =
      TrainGraphClassifier(mcfg, set, split, FastTrain());
  EXPECT_GT(result.val_accuracy, 0.7);
  EXPECT_GT(result.test_accuracy, 0.7);
  EXPECT_EQ(result.probs.rows(), static_cast<int>(set.graphs.size()));
}

TEST(TrainGraphTest, SplitPartitionsSet) {
  ProteinsLikeConfig pcfg;
  pcfg.num_graphs = 30;
  pcfg.seed = 11;
  GraphSet set = GenerateProteinsLike(pcfg);
  Rng rng(12);
  GraphSetSplit split = RandomGraphSetSplit(set, 0.5, 0.25, &rng);
  EXPECT_EQ(split.train.size() + split.val.size() + split.test.size(), 30u);
}

}  // namespace
}  // namespace ahg
