#include "core/trained_ensemble.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "graph/sampling.h"
#include "graph/synthetic.h"
#include "gtest/gtest.h"
#include "metrics/metrics.h"
#include "util/string_util.h"

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

// Members run their forwards concurrently, and each architecture averages
// its members in member order, so every thread count gives the same bits.
TEST(TrainedEnsembleTest, PredictProbaIsBitwiseAcrossThreadCounts) {
  Graph g = TestGraph(6);
  Rng rng(7);
  DataSplit split = RandomSplit(g, 0.5, 0.2, &rng);
  TrainConfig train = FastTrain();
  train.max_epochs = 10;
  TrainedEnsemble ensemble =
      TrainedEnsemble::Train(TinyPool(), {{2, 1, 2}, {1, 2}}, {0.3, 0.7}, g,
                             split, train, 8);
  ASSERT_EQ(ensemble.num_members(), 5);
  const Matrix serial = ensemble.PredictProba(g);
  for (int threads : {2, 4}) {
    const Matrix parallel = ensemble.PredictProba(g, threads);
    ASSERT_EQ(parallel.rows(), serial.rows());
    ASSERT_EQ(parallel.cols(), serial.cols());
    EXPECT_EQ(std::memcmp(parallel.data(), serial.data(),
                          serial.size() * sizeof(double)),
              0)
        << threads << " threads";
  }
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

// IEEE-754 bit patterns of TrainMember's best-validation parameters (every
// matrix in store order, each row-major), recorded before the loss kept its
// softmax rows for the backward and validation took the softmax of the val
// rows only. Both are exact reorderings of the same arithmetic.
const std::vector<uint64_t> kGoldenMemberBits = {
    0x3fe0f7bd12e299f8, 0x3f95f2792aed6a39, 0xbfe5954006a6811e,
    0xbfca92b05ce4bf86, 0x3fe1506baeb32d1f, 0x3fc6f497c7f7e66f,
    0xbfd02016451ba9c8, 0x3fde4847cff18f84, 0xbfc0e2413371eef4,
    0xbfe14f1d83e8eb30, 0x3fc2095a8a081617, 0xbfd69e2ea7f6e593,
    0x3fa75686350b099c, 0x3f822792d030cebb, 0xbf94f7127df251b1,
    0x3fc9387064368daf, 0xbfec1c781ce1fd28, 0xbfbf04db703eaa2e,
    0xbfd708ec09435593, 0xbfe83ea469be85d5, 0xbfe9c96ec9648c95,
    0xbfd45735f139a49c, 0x3fed8a6a571d3021, 0xbfd5d04b63decf4d,
    0xbf88dbfe883c0db5, 0xbf9898ef62a0a28d, 0x0000000000000000,
    0xbfccef078701628d, 0xbfef67c5be15e391, 0x3fca9e7d1e3134ae,
    0x3fe759ec8c8cf4bf, 0xbfea84a5bb4f4d31, 0xbfeb13c429b18f87,
    0xbfddb5b98dee3dfb, 0xbfe2e672940b18ba, 0x3fcbca91191114a8,
    0x3fa60909190cd06b, 0xbfad9c4194e547f4, 0x3fae09083d190c26};

TEST(TrainedEnsembleTest, TrainMemberParamsMatchGoldenBits) {
  SyntheticConfig graph_cfg;
  graph_cfg.num_nodes = 40;
  graph_cfg.num_classes = 3;
  graph_cfg.feature_dim = 4;
  graph_cfg.avg_degree = 4.0;
  graph_cfg.seed = 17;
  const Graph g = GenerateSbmGraph(graph_cfg);
  Rng rng(18);
  const DataSplit split = RandomSplit(g, 0.5, 0.25, &rng);
  CandidateSpec gcn = FindCandidate("GCN");
  gcn.config.hidden_dim = 3;
  TrainConfig train = FastTrain();
  train.max_epochs = 12;
  const std::vector<MemberSpec> specs =
      TrainedEnsemble::PlanMembers({gcn}, {{2}}, g, train, 19);
  ASSERT_EQ(specs.size(), 1u);

  std::vector<uint64_t> bits;
  for (const Matrix& m : TrainedEnsemble::TrainMember(specs[0], g, split)) {
    const size_t at = bits.size();
    bits.resize(at + static_cast<size_t>(m.size()));
    std::memcpy(bits.data() + at, m.data(), m.size() * sizeof(double));
  }
  std::string hex;
  for (uint64_t b : bits) {
    hex += StrFormat("0x%016llx, ", static_cast<unsigned long long>(b));
  }
  EXPECT_EQ(bits, kGoldenMemberBits) << hex;
}

// Without val rows a member keeps the epoch of the best train accuracy,
// exactly as if the train rows were its val rows, and so learns.
TEST(TrainedEnsembleTest, TrainMemberWithoutValKeepsBestTrainAccuracyEpoch) {
  SyntheticConfig graph_cfg;
  graph_cfg.num_nodes = 200;
  graph_cfg.num_classes = 3;
  graph_cfg.feature_dim = 10;
  graph_cfg.avg_degree = 5.0;
  graph_cfg.homophily = 0.9;
  graph_cfg.feature_signal = 1.0;
  graph_cfg.seed = 23;
  const Graph g = GenerateSbmGraph(graph_cfg);
  Rng rng(24);
  DataSplit no_val = RandomSplit(g, 0.5, 0.2, &rng);
  no_val.val.clear();
  DataSplit val_is_train = no_val;
  val_is_train.val = no_val.train;
  CandidateSpec gcn = FindCandidate("GCN");
  gcn.config.hidden_dim = 12;
  TrainConfig train = FastTrain();
  train.patience = 3;
  auto member = [&](int max_epochs, const DataSplit& split) {
    train.max_epochs = max_epochs;
    const std::vector<MemberSpec> specs =
        TrainedEnsemble::PlanMembers({gcn}, {{2}}, g, train, 25);
    std::vector<std::vector<Matrix>> params = {
        TrainedEnsemble::TrainMember(specs[0], g, split)};
    return TrainedEnsemble::FromParts(specs, std::move(params), {1.0});
  };
  const TrainedEnsemble one = member(1, no_val);
  const TrainedEnsemble trained = member(40, no_val);
  const TrainedEnsemble reference = member(40, val_is_train);
  ASSERT_EQ(trained.member_params(0).size(),
            reference.member_params(0).size());
  for (size_t i = 0; i < trained.member_params(0).size(); ++i) {
    const Matrix& a = trained.member_params(0)[i];
    const Matrix& b = reference.member_params(0)[i];
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << "param " << i;
  }
  const double train_one =
      Accuracy(one.PredictProba(g), g.labels(), no_val.train);
  const double train_trained =
      Accuracy(trained.PredictProba(g), g.labels(), no_val.train);
  EXPECT_GT(train_trained, train_one);
  EXPECT_GT(Accuracy(trained.PredictProba(g), g.labels(), no_val.test), 0.8);
}

TEST(TrainedEnsembleTest, LoadRejectsMissingDirectory) {
  EXPECT_EQ(TrainedEnsemble::Load("/definitely/not/there").status().code(),
            Status::Code::kNotFound);
}

}  // namespace
}  // namespace ahg
