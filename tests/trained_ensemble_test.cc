#include "core/trained_ensemble.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "graph/sampling.h"
#include "graph/synthetic.h"
#include "gtest/gtest.h"
#include "metrics/metrics.h"

namespace ahg {
namespace {

Graph TestGraph(uint64_t seed) {
  SyntheticConfig cfg;
  cfg.num_nodes = 180;
  cfg.num_classes = 3;
  cfg.feature_dim = 10;
  cfg.avg_degree = 5.0;
  cfg.homophily = 0.9;
  cfg.feature_signal = 1.0;
  cfg.seed = seed;
  return GenerateSbmGraph(cfg);
}

std::vector<CandidateSpec> TinyPool() {
  CandidateSpec gcn = FindCandidate("GCN");
  gcn.config.hidden_dim = 12;
  CandidateSpec sgc = FindCandidate("SGC");
  sgc.config.hidden_dim = 12;
  return {gcn, sgc};
}

TrainConfig FastTrain() {
  TrainConfig cfg;
  cfg.max_epochs = 40;
  cfg.patience = 8;
  cfg.learning_rate = 2e-2;
  return cfg;
}

TEST(TrainedEnsembleTest, PredictsWellOnTrainingGraph) {
  Graph g = TestGraph(1);
  Rng rng(2);
  DataSplit split = RandomSplit(g, 0.5, 0.2, &rng);
  TrainedEnsemble ensemble = TrainedEnsemble::Train(
      TinyPool(), {{2, 2}, {1, 2}}, {0.5, 0.5}, g, split, FastTrain(), 3);
  EXPECT_EQ(ensemble.num_members(), 4);
  Matrix probs = ensemble.PredictProba(g);
  EXPECT_GT(Accuracy(probs, g.labels(), split.test), 0.7);
}

TEST(TrainedEnsembleTest, InductiveTransferFromSubgraphToFullGraph) {
  // Train on a 50% induced subgraph, predict on the full graph — the
  // proxy-to-full workflow the competition pipeline relies on.
  Graph full = TestGraph(4);
  Rng rng(5);
  Subgraph sub = SampleInducedSubgraph(full, 0.5, &rng);
  DataSplit sub_split = RandomSplit(sub.graph, 0.6, 0.2, &rng);
  TrainedEnsemble ensemble = TrainedEnsemble::Train(
      TinyPool(), {{2, 2}, {2, 2}}, {0.5, 0.5}, sub.graph, sub_split,
      FastTrain(), 6);
  Matrix probs = ensemble.PredictProba(full);
  EXPECT_EQ(probs.rows(), full.num_nodes());
  EXPECT_GT(Accuracy(probs, full.labels(), full.LabeledNodes()), 0.65);
}

TEST(TrainedEnsembleTest, SaveLoadPreservesPredictions) {
  Graph g = TestGraph(7);
  Rng rng(8);
  DataSplit split = RandomSplit(g, 0.5, 0.2, &rng);
  TrainedEnsemble ensemble = TrainedEnsemble::Train(
      TinyPool(), {{2}, {3}}, {0.7, 0.3}, g, split, FastTrain(), 9);
  Matrix before = ensemble.PredictProba(g);

  const std::string dir = "/tmp/ahg_trained_ensemble";
  ASSERT_TRUE(ensemble.Save(dir).ok());
  auto loaded = TrainedEnsemble::Load(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_members(), 2);
  EXPECT_NEAR(loaded.value().beta()[0], 0.7, 1e-12);
  Matrix after = loaded.value().PredictProba(g);
  EXPECT_TRUE(AllClose(before, after, 1e-12));
}

// A resumed job predicts from the saved ensemble, so beta must survive the
// manifest exactly, not to six significant digits.
TEST(TrainedEnsembleTest, SaveLoadIsBitwiseWithNonTerminatingBeta) {
  Graph g = TestGraph(10);
  Rng rng(11);
  DataSplit split = RandomSplit(g, 0.5, 0.2, &rng);
  TrainedEnsemble ensemble = TrainedEnsemble::Train(
      TinyPool(), {{1}, {2}}, {1.0 / 3.0, 2.0 / 3.0}, g, split, FastTrain(),
      12);
  const Matrix before = ensemble.PredictProba(g);

  const std::string dir = "/tmp/ahg_trained_ensemble_thirds";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(ensemble.Save(dir).ok());
  auto loaded = TrainedEnsemble::Load(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().beta(), ensemble.beta());
  const Matrix after = loaded.value().PredictProba(g);
  ASSERT_EQ(before.size(), after.size());
  EXPECT_EQ(std::memcmp(before.data(), after.data(),
                        before.size() * sizeof(double)),
            0);
}

// A member whose family byte is corrupt must fail the load, not abort in
// BuildModel at the first forward.
TEST(TrainedEnsembleTest, LoadRejectsCorruptMemberFamily) {
  Graph g = TestGraph(13);
  Rng rng(14);
  DataSplit split = RandomSplit(g, 0.5, 0.2, &rng);
  TrainedEnsemble ensemble = TrainedEnsemble::Train(
      TinyPool(), {{1}, {1}}, {0.5, 0.5}, g, split, FastTrain(), 15);
  const std::string dir = "/tmp/ahg_trained_ensemble_family";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(ensemble.Save(dir).ok());

  const std::string member = dir + "/member_0.ahgm";
  std::string bytes;
  {
    std::ifstream in(member, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  constexpr size_t kFamilyOffset = 8;  // after the magic and the version
  ASSERT_GT(bytes.size(), kFamilyOffset);
  bytes[kFamilyOffset] = static_cast<char>(bytes[kFamilyOffset] ^ 0xFF);
  {
    std::ofstream out(member, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  auto loaded = TrainedEnsemble::Load(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kInvalidArgument);
}

TEST(TrainedEnsembleTest, LoadRejectsMissingDirectory) {
  EXPECT_EQ(TrainedEnsemble::Load("/definitely/not/there").status().code(),
            Status::Code::kNotFound);
}

}  // namespace
}  // namespace ahg
