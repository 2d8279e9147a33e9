#include "tasks/train_node_minibatch.h"

#include <set>
#include <string>

#include "graph/synthetic.h"
#include "gtest/gtest.h"

namespace ahg {
namespace {

Graph TestGraph(uint64_t seed) {
  SyntheticConfig cfg;
  cfg.num_nodes = 220;
  cfg.num_classes = 3;
  cfg.feature_dim = 10;
  cfg.avg_degree = 5.0;
  cfg.homophily = 0.9;
  cfg.feature_signal = 1.0;
  cfg.seed = seed;
  return GenerateSbmGraph(cfg);
}

TEST(NeighborSamplingTest, SeedsComeFirstAndClosureIsBounded) {
  Graph g = TestGraph(1);
  Rng rng(2);
  const std::vector<int> seeds{3, 17, 42, 99};
  SampledBatch batch = SampleNeighborhoodBatch(g, seeds, /*hops=*/2,
                                               /*fanout=*/4, &rng);
  ASSERT_EQ(batch.num_seeds, 4);
  for (size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(batch.node_map[i], seeds[i]);
  }
  // No duplicate nodes.
  std::set<int> unique(batch.node_map.begin(), batch.node_map.end());
  EXPECT_EQ(unique.size(), batch.node_map.size());
  // Fanout bound: closure size <= seeds * (1 + f + f^2) + slack from self
  // loops counted in the raw adjacency.
  EXPECT_LE(batch.graph.num_nodes(), 4 * (1 + 5 + 25));
  // Seed labels/features carried over.
  for (size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(batch.graph.labels()[i], g.labels()[seeds[i]]);
  }
}

TEST(NeighborSamplingTest, InducedEdgesExistInOriginal) {
  Graph g = TestGraph(3);
  Rng rng(4);
  SampledBatch batch =
      SampleNeighborhoodBatch(g, {0, 1, 2}, /*hops=*/2, /*fanout=*/3, &rng);
  std::set<std::pair<int, int>> original;
  for (const Edge& e : g.edges()) original.insert({e.src, e.dst});
  for (const Edge& e : batch.graph.edges()) {
    EXPECT_TRUE(original.count({batch.node_map[e.src],
                                batch.node_map[e.dst]}) > 0);
  }
}

TEST(MinibatchTrainTest, ReachesFullBatchAccuracyBallpark) {
  Graph g = TestGraph(5);
  Rng rng(6);
  DataSplit split = RandomSplit(g, 0.5, 0.2, &rng);
  ModelConfig mcfg;
  mcfg.family = ModelFamily::kSageMean;
  mcfg.hidden_dim = 16;
  mcfg.num_layers = 2;
  mcfg.dropout = 0.2;
  mcfg.seed = 7;
  TrainConfig tcfg;
  tcfg.max_epochs = 30;
  tcfg.patience = 8;
  tcfg.learning_rate = 1e-2;
  MinibatchConfig mb;
  mb.batch_size = 32;
  mb.fanout = 5;
  NodeTrainResult mini =
      TrainSingleNodeModelMinibatch(mcfg, g, split, tcfg, mb);
  EXPECT_GT(mini.test_accuracy, 0.7);
  NodeTrainResult full = TrainSingleNodeModel(mcfg, g, split, tcfg);
  EXPECT_GT(mini.test_accuracy, full.test_accuracy - 0.12);

  // Recorded when the mini-batch trainer still ran its own epoch loop:
  // FNV-1a over the kept probs, the kept epoch and both accuracies.
  std::string bits;
  const int dims[2] = {mini.probs.rows(), mini.probs.cols()};
  bits.append(reinterpret_cast<const char*>(dims), sizeof(dims));
  bits.append(reinterpret_cast<const char*>(mini.probs.data()),
              mini.probs.size() * sizeof(double));
  bits.append(reinterpret_cast<const char*>(&mini.best_epoch), sizeof(int));
  bits.append(reinterpret_cast<const char*>(&mini.val_accuracy),
              sizeof(double));
  bits.append(reinterpret_cast<const char*>(&mini.test_accuracy),
              sizeof(double));
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char byte : bits) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  }
  EXPECT_EQ(h, 0x4d847228bf821993ULL) << std::hex << h;
}

TEST(MinibatchTrainTest, WorksWithBatchLargerThanTrainSet) {
  Graph g = TestGraph(8);
  Rng rng(9);
  DataSplit split = RandomSplit(g, 0.3, 0.2, &rng);
  ModelConfig mcfg;
  mcfg.family = ModelFamily::kGcn;
  mcfg.hidden_dim = 12;
  mcfg.num_layers = 2;
  mcfg.dropout = 0.0;
  mcfg.seed = 10;
  TrainConfig tcfg;
  tcfg.max_epochs = 15;
  tcfg.patience = 6;
  MinibatchConfig mb;
  mb.batch_size = 100000;  // one batch per epoch
  mb.fanout = 100000;      // no sampling: equivalent to full closure
  NodeTrainResult result =
      TrainSingleNodeModelMinibatch(mcfg, g, split, tcfg, mb);
  EXPECT_GT(result.test_accuracy, 0.6);
}

}  // namespace
}  // namespace ahg
