// Locality plane: permutation determinism and serialization, the
// rank-order invariant on permuted CSRs, exact-threshold DeltaCsr
// compaction, and the bitwise-conformance matrix — lone engine across six
// zoo families, partitioned engine across part counts, and the dynamic
// stream including a compaction-triggered mid-stream re-reorder.
#include "graph/reorder.h"

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "dyn/delta_csr.h"
#include "dyn/mutation.h"
#include "dyn/snapshot.h"
#include "dyn/stream_server.h"
#include "graph/graph.h"
#include "graph/split.h"
#include "graph/statistics.h"
#include "graph/synthetic.h"
#include "gtest/gtest.h"
#include "nn/linear.h"
#include "obs/metrics.h"
#include "partition/partitioned_engine.h"
#include "serve/inference_engine.h"
#include "serve/model_registry.h"
#include "tensor/sparse_matrix.h"
#include "util/rng.h"

namespace ahg {
namespace {

Graph TestGraph(int num_nodes = 96, uint64_t seed = 7) {
  SyntheticConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.num_classes = 4;
  cfg.feature_dim = 6;
  cfg.avg_degree = 4.0;
  cfg.seed = seed;
  return GenerateSbmGraph(cfg);
}

// Untrained model + head snapshotted into ServableModel layout; weights
// depend only on (family, dims, seed), never on the graph's node order.
serve::ServableModel MakeServable(const Graph& graph, ModelFamily family,
                                  uint64_t seed = 11) {
  serve::ServableModel model;
  // Engines cache hidden states per model version, so each family needs a
  // distinct version when served through one engine.
  model.version = 1 + static_cast<int>(family);
  model.num_classes = graph.num_classes();
  model.config.family = family;
  model.config.in_dim = graph.feature_dim();
  model.config.hidden_dim = 8;
  model.config.num_layers = 2;
  model.config.seed = seed;
  std::unique_ptr<GnnModel> zoo = BuildModel(model.config);
  Rng head_rng(model.config.seed ^ 0x5ca1ab1eULL);
  Linear head(zoo->params(), model.config.hidden_dim, model.num_classes,
              /*bias=*/true, &head_rng);
  model.params = zoo->params()->Snapshot();
  return model;
}

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int r = 0; r < a.rows(); ++r) {
    if (std::memcmp(a.Row(r), b.Row(r),
                    static_cast<size_t>(a.cols()) * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

const ReorderStrategy kActiveStrategies[] = {ReorderStrategy::kRcm,
                                              ReorderStrategy::kShuffle};

TEST(ReorderTest, StrategyNamesRoundTrip) {
  for (ReorderStrategy s : {ReorderStrategy::kNone, ReorderStrategy::kRcm,
                            ReorderStrategy::kShuffle}) {
    auto parsed = ParseReorderStrategy(ReorderStrategyName(s));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), s);
  }
  EXPECT_FALSE(ParseReorderStrategy("metis").ok());
  EXPECT_FALSE(ParseReorderStrategy("hub").ok());
}

TEST(ReorderTest, PermutationIsDeterministicPerGraphStrategySeed) {
  const Graph graph = TestGraph();
  for (ReorderStrategy s : kActiveStrategies) {
    const NodePermutation a = ComputeReorder(graph, s, 42);
    const NodePermutation b = ComputeReorder(graph, s, 42);
    EXPECT_EQ(a.to_internal, b.to_internal);
    EXPECT_EQ(a.to_external, b.to_external);
    EXPECT_EQ(a.Serialize(), b.Serialize());
  }
  // Seed actually matters for the seeded strategy.
  const NodePermutation s1 =
      ComputeReorder(graph, ReorderStrategy::kShuffle, 1);
  const NodePermutation s2 =
      ComputeReorder(graph, ReorderStrategy::kShuffle, 2);
  EXPECT_NE(s1.to_internal, s2.to_internal);
}

TEST(ReorderTest, PermutationIsABijection) {
  const Graph graph = TestGraph();
  for (ReorderStrategy s : kActiveStrategies) {
    const NodePermutation perm = ComputeReorder(graph, s, 3);
    ASSERT_EQ(perm.num_nodes(), graph.num_nodes());
    for (int e = 0; e < perm.num_nodes(); ++e) {
      const int i = perm.to_internal[e];
      ASSERT_GE(i, 0);
      ASSERT_LT(i, perm.num_nodes());
      EXPECT_EQ(perm.to_external[i], e);
    }
  }
}

TEST(ReorderTest, SerializeDeserializeRoundTrip) {
  const Graph graph = TestGraph(40);
  const NodePermutation perm =
      ComputeReorder(graph, ReorderStrategy::kShuffle, 99);
  auto back = NodePermutation::Deserialize(perm.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().strategy, perm.strategy);
  EXPECT_EQ(back.value().seed, perm.seed);
  EXPECT_EQ(back.value().to_internal, perm.to_internal);
  EXPECT_EQ(back.value().to_external, perm.to_external);
  EXPECT_FALSE(NodePermutation::Deserialize("not a perm").ok());
  // A node count the text cannot hold is rejected before any allocation
  // (each entry needs at least two bytes: a separator and a digit).
  const StatusOr<NodePermutation> huge = NodePermutation::Deserialize(
      "ahg-node-perm 1\nstrategy rcm\nseed 1\nnodes 2000000000\n0 1\n");
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), Status::Code::kInvalidArgument);
  EXPECT_FALSE(NodePermutation::Deserialize(
                   "ahg-node-perm 1\nstrategy rcm\nseed 1\nnodes 3\n0 1")
                   .ok());
}

TEST(ReorderTest, IdentityExtensionAndComposition) {
  NodePermutation id = NodePermutation::Identity(5);
  for (int e = 0; e < 5; ++e) EXPECT_EQ(id.to_internal[e], e);
  NodePermutation grown = id.ExtendedTo(8);
  for (int e = 5; e < 8; ++e) {
    EXPECT_EQ(grown.to_internal[e], e);
    EXPECT_EQ(grown.to_external[e], e);
  }
  const std::vector<int> remap = {2, 0, 1, 4, 3};
  const NodePermutation composed = id.ComposedWith(remap);
  for (int e = 0; e < 5; ++e) EXPECT_EQ(composed.to_internal[e], remap[e]);
}

// The rank-order invariant: every permuted CSR row stores the SAME value
// sequence as the original external row, with columns mapped — entries
// ascend by external id (rank), never re-sorted by internal id.
TEST(ReorderTest, PermutedCsrKeepsExternalValueSequence) {
  const Graph graph = TestGraph();
  const SparseMatrix& orig = graph.Adjacency(AdjacencyKind::kSymNorm);
  for (ReorderStrategy s : kActiveStrategies) {
    const Graph reordered = ReorderGraph(graph, s, 5);
    ASSERT_NE(reordered.permutation(), nullptr);
    const NodePermutation& perm = *reordered.permutation();
    const SparseMatrix& got = reordered.Adjacency(AdjacencyKind::kSymNorm);
    for (int e = 0; e < graph.num_nodes(); ++e) {
      const int r = perm.to_internal[e];
      const int64_t nnz = orig.RowNnz(e);
      ASSERT_EQ(got.RowNnz(r), nnz);
      const int64_t ob = orig.row_ptr()[e];
      const int64_t gb = got.row_ptr()[r];
      int64_t prev_rank = -1;
      for (int64_t k = 0; k < nnz; ++k) {
        // Same external column, in the same position.
        const int rank = perm.to_external[got.col_idx()[gb + k]];
        EXPECT_EQ(rank, orig.col_idx()[ob + k]);
        EXPECT_GT(rank, prev_rank);  // ascending external id
        prev_rank = rank;
      }
      // Values byte-copied, not recomputed.
      EXPECT_EQ(std::memcmp(orig.values().data() + ob,
                            got.values().data() + gb,
                            static_cast<size_t>(nnz) * sizeof(double)),
                0);
    }
  }
}

TEST(ReorderTest, SplitProjectionCrossesTheBoundaryOnce) {
  const Graph graph = TestGraph();
  Rng rng(3);
  const DataSplit split = RandomSplit(graph, 0.5, 0.25, &rng);
  const Graph reordered = ReorderGraph(graph, ReorderStrategy::kRcm, 5);
  const DataSplit projected = ProjectSplit(reordered.permutation(), split);
  ASSERT_EQ(projected.train.size(), split.train.size());
  for (size_t i = 0; i < split.train.size(); ++i) {
    EXPECT_EQ(projected.train[i],
              reordered.permutation()->to_internal[split.train[i]]);
  }
  // Null permutation = identity.
  const DataSplit same = ProjectSplit(nullptr, split);
  EXPECT_EQ(same.train, split.train);
  EXPECT_EQ(same.val, split.val);
  EXPECT_EQ(same.test, split.test);
}

TEST(ReorderTest, LocalityStatsImproveAndGaugesPublish) {
  const Graph graph = TestGraph(200, 9);
  const Graph shuffled = ReorderGraph(graph, ReorderStrategy::kShuffle, 5);
  const Graph rcm = ReorderGraph(graph, ReorderStrategy::kRcm, 5);
  const GraphStatistics bad = ComputeStatistics(shuffled);
  const GraphStatistics good = ComputeStatistics(rcm);
  // RCM minimizes bandwidth; the shuffle is the pessimal baseline.
  EXPECT_LT(good.bandwidth, bad.bandwidth);
  EXPECT_GT(good.hub_mass, 0.0);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  PublishGraphGauges(good, &reg, "reorder_test_");
  EXPECT_EQ(reg.GetGauge("graph.reorder_test_nodes")->Value(),
            static_cast<double>(good.num_nodes));
  EXPECT_EQ(reg.GetGauge("graph.reorder_test_bandwidth")->Value(),
            static_cast<double>(good.bandwidth));
  EXPECT_EQ(reg.GetGauge("graph.reorder_test_mean_column_gap")->Value(),
            good.mean_column_gap);
  EXPECT_EQ(reg.GetGauge("graph.reorder_test_hub_mass")->Value(),
            good.hub_mass);
}

// Satellite regression: MaybeCompact must fire AT the documented 25%
// threshold, not strictly above it (the historical off-by-one).
TEST(DeltaCsrCompactionTest, FiresAtExactQuarterOverlay) {
  const int n = 8;  // 2 of 8 rows = exactly 0.25
  std::vector<CooEntry> entries;
  for (int r = 0; r < n; ++r) {
    entries.push_back({r, (r + 1) % n, 1.0});
  }
  auto base = std::make_shared<const SparseMatrix>(
      SparseMatrix::FromCoo(n, n, entries));
  dyn::DeltaCsr d(base);
  d.OverrideRow(0, {1, 2}, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(d.overlay_fraction(), 0.125);
  EXPECT_FALSE(d.MaybeCompact());
  EXPECT_EQ(d.overridden_rows(), 1);
  d.OverrideRow(3, {0, 5}, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(d.overlay_fraction(), 0.25);
  EXPECT_TRUE(d.MaybeCompact());  // AT the threshold
  EXPECT_EQ(d.overridden_rows(), 0);
  // The fold preserved the logical matrix.
  EXPECT_EQ(d.Row(0).nnz, 2);
  EXPECT_EQ(d.Row(3).cols[1], 5);
}

TEST(DeltaCsrCompactionTest, ColRankDrivesOrderValidationAndLookup) {
  const int n = 4;
  std::vector<CooEntry> entries = {{0, 1, 1.0}};
  auto base = std::make_shared<const SparseMatrix>(
      SparseMatrix::FromCoo(n, n, entries));
  dyn::DeltaCsr d(base);
  // Reverse rank: column c ranks as n-1-c, so a descending-id row is
  // ascending-rank and must be accepted.
  auto rank = std::make_shared<std::vector<int>>(std::vector<int>{3, 2, 1, 0});
  d.SetColRank(rank);
  d.OverrideRow(2, {3, 1, 0}, {1.0, 2.0, 3.0});
  EXPECT_EQ(d.Row(2).nnz, 3);
  EXPECT_EQ(d.RankOf(0), 3);
  // Columns beyond the rank vector rank as themselves (ExtendedTo tail).
  d.Grow(6, 6);
  EXPECT_EQ(d.RankOf(5), 5);
}

// Lone-engine conformance: an engine on the reordered graph serves
// byte-identical probabilities to an engine on the original, across every
// zoo family the serving path exercises.
TEST(ReorderConformanceTest, LoneEngineAllFamilies) {
  const Graph graph = TestGraph();
  const ModelFamily families[] = {ModelFamily::kGcn,   ModelFamily::kMlp,
                                  ModelFamily::kTagcn, ModelFamily::kGin,
                                  ModelFamily::kGcnii, ModelFamily::kJkMax};
  for (ReorderStrategy s : kActiveStrategies) {
    const Graph reordered = ReorderGraph(graph, s, 13);
    serve::InferenceEngine plain(&graph, serve::EngineOptions{});
    serve::InferenceEngine permuted(&reordered, serve::EngineOptions{});
    for (ModelFamily family : families) {
      SCOPED_TRACE(std::string(ReorderStrategyName(s)) + "/" +
                   ModelFamilyName(family));
      const serve::ServableModel model = MakeServable(graph, family);
      auto ref = plain.PredictAll(model);
      auto got = permuted.PredictAll(model);
      ASSERT_TRUE(ref.ok() && got.ok());
      // PredictAll returns EXTERNAL row order on both engines.
      EXPECT_TRUE(BitwiseEqual(ref.value(), got.value()));
      // Point queries speak external ids too.
      const std::vector<int> nodes = {17, 0, 95, 42};
      auto ref_rows = plain.PredictNodes(model, nodes);
      auto got_rows = permuted.PredictNodes(model, nodes);
      ASSERT_TRUE(ref_rows.ok() && got_rows.ok());
      EXPECT_TRUE(BitwiseEqual(ref_rows.value(), got_rows.value()));
    }
  }
}

TEST(ReorderConformanceTest, PartitionedEngineAcrossPartCounts) {
  const Graph graph = TestGraph(150, 21);
  std::vector<int> all_nodes;
  for (int i = 0; i < graph.num_nodes(); ++i) all_nodes.push_back(i);
  serve::InferenceEngine lone(&graph, serve::EngineOptions{});
  for (ModelFamily family : {ModelFamily::kGcn, ModelFamily::kSgc}) {
    const serve::ServableModel model = MakeServable(graph, family);
    auto ref = lone.PredictNodes(model, all_nodes);
    ASSERT_TRUE(ref.ok());
    const Graph reordered = ReorderGraph(graph, ReorderStrategy::kRcm, 31);
    for (int parts : {1, 2, 4}) {
      SCOPED_TRACE(std::string(ModelFamilyName(family)) +
                   "/P=" + std::to_string(parts));
      auto engine = partition::PartitionedEngine::Create(reordered, parts);
      ASSERT_TRUE(engine.ok());
      auto got = engine.value()->PredictNodes(model, all_nodes);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(BitwiseEqual(ref.value(), got.value()));
    }
  }
}

TEST(ReorderConformanceTest, PartitionPlanKeepsRankOrderPerPart) {
  const Graph reordered =
      ReorderGraph(TestGraph(120, 4), ReorderStrategy::kShuffle, 8);
  auto plan = partition::PartitionPlan::Build(reordered, 3);
  ASSERT_TRUE(plan.ok());
  for (const partition::PartitionPlan::Part& part : plan.value().parts) {
    ASSERT_NE(part.adj.col_rank(), nullptr);
    for (int l : part.owned_locals) {
      const dyn::DeltaCsr::RowRef row = part.adj.Row(l);
      for (int64_t k = 1; k < row.nnz; ++k) {
        EXPECT_LT(part.adj.RankOf(row.cols[k - 1]),
                  part.adj.RankOf(row.cols[k]));
      }
    }
  }
}

TEST(ReorderDynTest, SnapshotBoundariesAndAddNodeStability) {
  const Graph graph = TestGraph(60, 15);
  const Graph reordered = ReorderGraph(graph, ReorderStrategy::kRcm, 15);
  auto snap_or = dyn::GraphSnapshot::FromGraph(reordered);
  ASSERT_TRUE(snap_or.ok());
  const dyn::GraphSnapshot& snap = snap_or.value();
  ASSERT_NE(snap.permutation(), nullptr);
  EXPECT_EQ(snap.ToExternal(snap.ToInternal(17)), 17);

  // AddNode: the new node's external id is the old num_nodes(), stable
  // across the identity tail AND across a later re-reorder.
  const int n = snap.num_nodes();
  std::vector<double> feat(static_cast<size_t>(snap.feature_dim()), 0.5);
  feat[0] = 7.25;
  std::vector<dyn::Mutation> batch;
  batch.push_back(dyn::Mutation::AddNode(feat, 1));
  batch.push_back(dyn::Mutation::AddEdge(n, 5));  // wire it in, external ids
  auto next_or = snap.Apply(batch);
  ASSERT_TRUE(next_or.ok());
  const dyn::GraphSnapshot& next = next_or.value().first;
  EXPECT_EQ(next.num_nodes(), n + 1);
  EXPECT_EQ(next.ToInternal(n), n);  // identity tail before any re-reorder
  EXPECT_EQ(next.FeatureRow(next.ToInternal(n))[0], 7.25);
  EXPECT_TRUE(next.HasEdge(n, 5));

  const dyn::ReorderResult res = next.Reordered(ReorderStrategy::kRcm, 15);
  const dyn::GraphSnapshot& relabeled = res.snapshot;
  EXPECT_EQ(relabeled.version(), next.version() + 1);
  ASSERT_EQ(static_cast<int>(res.remap.size()), n + 1);
  // Same logical node behind the same external id after the re-reorder.
  EXPECT_EQ(relabeled.FeatureRow(relabeled.ToInternal(n))[0], 7.25);
  EXPECT_TRUE(relabeled.HasEdge(n, 5));
  for (int e = 0; e <= n; ++e) {
    EXPECT_EQ(relabeled.ToInternal(e),
              res.remap[next.ToInternal(e)]);
  }
}

// Dynamic stream conformance: a reordered stream with compaction-triggered
// mid-stream re-reorders must stay bitwise identical to a cold rebuild.
TEST(ReorderDynTest, StreamConformanceThroughCompactionReorder) {
  const Graph graph = TestGraph(80, 23);
  const Graph reordered = ReorderGraph(graph, ReorderStrategy::kRcm, 23);
  const serve::ServableModel model = MakeServable(graph, ModelFamily::kGcn);
  dyn::StreamOptions options;
  options.reorder = ReorderStrategy::kRcm;
  options.reorder_seed = 23;
  auto server_or = dyn::StreamingServer::Create(reordered, model, options);
  ASSERT_TRUE(server_or.ok());
  dyn::StreamingServer& server = *server_or.value();

  Rng rng(77);
  int batches = 0;
  for (int round = 0; round < 6; ++round) {
    // Dense enough batches that the 25% overlay threshold trips and the
    // re-reorder path runs mid-stream.
    int submitted = 0;
    while (submitted < 25) {
      const auto snap = server.snapshot();
      const int u = static_cast<int>(rng.UniformInt(snap->num_nodes()));
      const int v = static_cast<int>(rng.UniformInt(snap->num_nodes()));
      if (u == v) continue;
      if (snap->HasEdge(u, v)) {
        server.Submit(dyn::Mutation::RemoveEdge(u, v));
      } else {
        server.Submit(dyn::Mutation::AddEdge(u, v));
      }
      ++submitted;
    }
    if (round == 2) {  // grow the graph mid-stream too
      std::vector<double> feat(
          static_cast<size_t>(server.snapshot()->feature_dim()), 0.125);
      server.Submit(dyn::Mutation::AddNode(feat, 0));
    }
    auto stats = server.ApplyPending();
    ASSERT_TRUE(stats.ok());
    ++batches;
  }
  // Every compaction bumps the version a second time (Apply + Reordered),
  // so with these batch sizes the version must have outrun the batch count.
  EXPECT_GT(static_cast<int>(server.version()), batches);
  ASSERT_NE(server.snapshot()->permutation(), nullptr);

  // Oracle: cold engine on the materialized graph, external row order.
  const Graph rebuilt = server.snapshot()->MaterializeGraph();
  serve::InferenceEngine cold(&rebuilt, serve::EngineOptions{});
  std::vector<int> nodes;
  for (int i = 0; i < rebuilt.num_nodes(); ++i) nodes.push_back(i);
  auto streamed = server.PredictNodes(nodes);
  auto statically = cold.PredictNodes(model, nodes);
  ASSERT_TRUE(streamed.ok() && statically.ok());
  EXPECT_TRUE(BitwiseEqual(streamed.value(), statically.value()));
}

}  // namespace
}  // namespace ahg
