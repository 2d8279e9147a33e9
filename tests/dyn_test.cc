// The dynamic-graph subsystem: mutation-log semantics, atomic batch
// validation, COW storage sharing across snapshot versions, row-subset
// SpMM bitwise guarantees, and the tentpole oracle — incremental
// propagation refresh is bitwise identical to a cold full recompute over
// randomized mutation batches, for GCN and SGC. Also covers the serving
// integration: InferenceEngine snapshot swap + installed hidden states,
// PropagationCache graph-scoped invalidation and its metrics mirror, and
// concurrent readers during ApplyPending (this test runs under TSan and
// ASan in CI).
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/bitset.h"

#include "dyn/delta_csr.h"
#include "dyn/incremental.h"
#include "dyn/mutation.h"
#include "dyn/snapshot.h"
#include "dyn/stream_server.h"
#include "graph/synthetic.h"
#include "gtest/gtest.h"
#include "nn/linear.h"
#include "obs/metrics.h"
#include "serve/inference_engine.h"
#include "serve/model_registry.h"
#include "serve/propagation_cache.h"

namespace ahg::dyn {
namespace {

Graph SmallGraph(uint64_t seed = 7, int num_nodes = 48) {
  SyntheticConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.num_classes = 3;
  cfg.feature_dim = 6;
  cfg.avg_degree = 3.0;
  cfg.seed = seed;
  return GenerateSbmGraph(cfg);
}

serve::ServableModel MakeServable(const Graph& graph, int version,
                                  ModelFamily family = ModelFamily::kGcn,
                                  uint64_t seed = 11) {
  serve::ServableModel model;
  model.version = version;
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

std::vector<Matrix> LayerParams(const serve::ServableModel& model) {
  return std::vector<Matrix>(model.params.begin(), model.params.end() - 2);
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

// A random valid mutation against `snap`'s current topology. Unweighted
// (weight 1.0) so degree arithmetic stays exactly integral and the
// cross-path comparisons against a rebuilt static Graph are exact.
Mutation RandomMutation(const GraphSnapshot& snap, Rng* rng) {
  const int n = snap.num_nodes();
  while (true) {
    const int kind = static_cast<int>(rng->UniformInt(10));
    if (kind < 4) {  // add edge
      const int u = static_cast<int>(rng->UniformInt(n));
      const int v = static_cast<int>(rng->UniformInt(n));
      if (u == v || snap.HasEdge(u, v)) continue;
      return Mutation::AddEdge(u, v);
    }
    if (kind < 7) {  // remove a random existing edge
      const int u = static_cast<int>(rng->UniformInt(n));
      const DeltaCsr::RowRef row =
          snap.raw_adjacency().Row(snap.ToInternal(u));
      if (row.nnz == 0) continue;
      const int v = snap.ToExternal(row.cols[rng->UniformInt(row.nnz)]);
      return Mutation::RemoveEdge(u, v);
    }
    if (kind < 9) {  // feature update
      const int u = static_cast<int>(rng->UniformInt(n));
      std::vector<double> f(snap.feature_dim());
      for (double& x : f) x = rng->Normal();
      return Mutation::UpdateFeatures(u, std::move(f));
    }
    std::vector<double> f(snap.feature_dim());  // add node
    for (double& x : f) x = rng->Normal();
    return Mutation::AddNode(std::move(f),
                             static_cast<int>(rng->UniformInt(3)));
  }
}

TEST(MutationLogTest, SequencesAndDrainsInArrivalOrder) {
  MutationLog log;
  EXPECT_EQ(log.Append(Mutation::AddEdge(0, 1)), 0u);
  EXPECT_EQ(log.Append(Mutation::RemoveEdge(0, 1)), 1u);
  EXPECT_EQ(log.Append(Mutation::AddEdge(2, 3)), 2u);
  EXPECT_EQ(log.pending(), 3u);
  std::vector<Mutation> first = log.Drain(/*max=*/2);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].kind, MutationKind::kAddEdge);
  EXPECT_EQ(first[1].kind, MutationKind::kRemoveEdge);
  EXPECT_EQ(log.pending(), 1u);
  std::vector<Mutation> rest = log.Drain();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].u, 2);
  EXPECT_EQ(log.pending(), 0u);
  EXPECT_EQ(log.next_sequence(), 3u);
}

TEST(DeltaCsrTest, SpmmRowsMatchesFullSpmmBitwise) {
  Graph graph = SmallGraph(3);
  auto snap = GraphSnapshot::FromGraph(graph);
  ASSERT_TRUE(snap.ok());
  const DeltaCsr& adj = snap.value().adjacency();
  Rng rng(5);
  Matrix x(adj.cols(), 7);
  for (int r = 0; r < x.rows(); ++r) {
    for (int c = 0; c < x.cols(); ++c) x(r, c) = rng.Normal();
  }
  Matrix full = adj.Spmm(x);
  std::vector<int> rows = {0, 5, 11, 31, 47};
  Matrix subset = adj.SpmmRows(rows, x);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(std::memcmp(subset.Row(static_cast<int>(i)), full.Row(rows[i]),
                          static_cast<size_t>(x.cols()) * sizeof(double)),
              0);
  }
}

TEST(DeltaCsrTest, MatchesMaterializedSparseMatrixAfterOverrides) {
  Graph graph = SmallGraph(9);
  auto snap_or = GraphSnapshot::FromGraph(graph);
  ASSERT_TRUE(snap_or.ok());
  GraphSnapshot snap = std::move(snap_or).value();
  Rng rng(21);
  for (int step = 0; step < 5; ++step) {
    std::vector<Mutation> batch;
    for (int i = 0; i < 4; ++i) batch.push_back(RandomMutation(snap, &rng));
    auto applied = snap.Apply(batch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    snap = std::move(applied).value().first;
  }
  const DeltaCsr& adj = snap.adjacency();
  SparseMatrix flat = adj.Materialize();
  Matrix x(adj.cols(), 5);
  for (int r = 0; r < x.rows(); ++r) {
    for (int c = 0; c < x.cols(); ++c) x(r, c) = rng.Normal();
  }
  EXPECT_TRUE(BitwiseEqual(adj.Spmm(x), flat.Spmm(x)));
}

TEST(SnapshotTest, Version0AdjacencyIsTheGraphsSymNormMatrix) {
  Graph graph = SmallGraph(13);
  auto snap = GraphSnapshot::FromGraph(graph);
  ASSERT_TRUE(snap.ok());
  const SparseMatrix& expected = graph.Adjacency(AdjacencyKind::kSymNorm);
  const DeltaCsr& adj = snap.value().adjacency();
  ASSERT_EQ(adj.rows(), expected.rows());
  ASSERT_EQ(adj.nnz(), expected.nnz());
  for (int r = 0; r < adj.rows(); ++r) {
    const DeltaCsr::RowRef row = adj.Row(r);
    ASSERT_EQ(row.nnz, expected.RowNnz(r));
    const int64_t begin = expected.row_ptr()[r];
    EXPECT_EQ(std::memcmp(row.cols, expected.col_idx().data() + begin,
                          static_cast<size_t>(row.nnz) * sizeof(int)),
              0);
    EXPECT_EQ(std::memcmp(row.vals, expected.values().data() + begin,
                          static_cast<size_t>(row.nnz) * sizeof(double)),
              0);
  }
}

TEST(SnapshotTest, RejectsInvalidMutationsAtomically) {
  Graph graph = SmallGraph(7);
  auto snap_or = GraphSnapshot::FromGraph(graph);
  ASSERT_TRUE(snap_or.ok());
  const GraphSnapshot& snap = snap_or.value();
  const uint64_t version = snap.version();
  const int64_t edges = snap.num_edges();

  // Find one present and one absent edge to build the invalid batches.
  int pu = -1, pv = -1, au = -1, av = -1;
  for (int u = 0; u < snap.num_nodes() && (pu < 0 || au < 0); ++u) {
    for (int v = 0; v < snap.num_nodes(); ++v) {
      if (u == v) continue;
      if (pu < 0 && snap.HasEdge(u, v)) {
        pu = u;
        pv = v;
      }
      if (au < 0 && !snap.HasEdge(u, v)) {
        au = u;
        av = v;
      }
    }
  }
  ASSERT_GE(pu, 0);
  ASSERT_GE(au, 0);

  const std::vector<std::vector<Mutation>> bad_batches = {
      {Mutation::AddEdge(0, snap.num_nodes())},       // endpoint range
      {Mutation::AddEdge(3, 3)},                      // self loop
      {Mutation::AddEdge(au, av, -1.0)},              // bad weight
      {Mutation::AddEdge(pu, pv)},                    // duplicate add
      {Mutation::RemoveEdge(au, av)},                 // missing remove
      {Mutation::UpdateFeatures(0, {1.0})},           // wrong feature width
      {Mutation::AddNode({1.0}, 0)},                  // wrong feature width
      {Mutation::AddNode(std::vector<double>(6, 0.0), 99)},  // bad label
      // Valid first mutation, invalid second: the whole batch must fail.
      {Mutation::AddEdge(au, av), Mutation::AddEdge(au, av)},
  };
  for (const auto& batch : bad_batches) {
    auto applied = snap.Apply(batch);
    EXPECT_FALSE(applied.ok());
  }
  // The source snapshot is untouched.
  EXPECT_EQ(snap.version(), version);
  EXPECT_EQ(snap.num_edges(), edges);
  EXPECT_TRUE(snap.HasEdge(pu, pv));
  EXPECT_FALSE(snap.HasEdge(au, av));
}

TEST(SnapshotTest, ApplyIsCopyOnWrite) {
  Graph graph = SmallGraph(31);
  auto snap_or = GraphSnapshot::FromGraph(graph);
  ASSERT_TRUE(snap_or.ok());
  const GraphSnapshot& v0 = snap_or.value();

  // Mutate around node 0; find a remote untouched node.
  int target = -1;
  for (int u = 1; u < v0.num_nodes(); ++u) {
    if (!v0.HasEdge(0, u) && u != 0) {
      target = u;
      break;
    }
  }
  ASSERT_GT(target, 0);
  auto applied = v0.Apply({Mutation::AddEdge(0, target)});
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  const GraphSnapshot& v1 = applied.value().first;
  const BatchDelta& delta = applied.value().second;
  EXPECT_EQ(v1.version(), 1u);
  EXPECT_TRUE(v1.HasEdge(0, target));
  EXPECT_FALSE(v0.HasEdge(0, target));

  // Untouched rows share storage with v0 (same base pointers); the mutated
  // endpoints were reallocated.
  int untouched = -1;
  DynamicBitset dirty(v1.num_nodes());
  for (int r : delta.dirty_adj_rows) dirty.Set(r);
  for (int r = 0; r < v0.num_nodes(); ++r) {
    if (!dirty.Test(r)) {
      untouched = r;
      break;
    }
  }
  ASSERT_GE(untouched, 0);
  EXPECT_EQ(v0.adjacency().Row(untouched).vals,
            v1.adjacency().Row(untouched).vals);
  EXPECT_NE(v0.adjacency().Row(0).vals, v1.adjacency().Row(0).vals);
  EXPECT_GT(v1.adjacency().overridden_rows(), 0);
  EXPECT_LT(v1.adjacency().overridden_rows(), v1.num_nodes());

  // Dirty sets: both endpoints plus their neighborhoods, and no feature
  // dirt for a pure edge mutation.
  EXPECT_TRUE(dirty.Test(0));
  EXPECT_TRUE(dirty.Test(target));
  EXPECT_TRUE(delta.dirty_feature_rows.empty());
  EXPECT_EQ(delta.edges_added, 1);
}

// An unreordered snapshot is never Reordered(), so only Apply's fold keeps
// its feature overlay bounded: after more than n/4 single-row updates (and
// one appended node) the overlay stays under n/4 rows, and the features
// still read back exactly as updated.
TEST(SnapshotTest, FeatureOverridesFoldIntoBase) {
  Graph graph = SmallGraph(41, 64);
  auto snap_or = GraphSnapshot::FromGraph(graph);
  ASSERT_TRUE(snap_or.ok());
  GraphSnapshot snap = snap_or.value();
  ASSERT_EQ(snap.permutation(), nullptr);
  const int n = snap.num_nodes();
  const int dim = snap.feature_dim();

  std::vector<std::vector<double>> expected(n);
  for (int r = 0; r < n; ++r) {
    expected[r].assign(graph.features().Row(r), graph.features().Row(r) + dim);
  }
  auto apply = [&](const Mutation& m) {
    auto applied = snap.Apply({m});
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    snap = std::move(applied.value().first);
    EXPECT_LT(static_cast<double>(snap.overridden_feature_rows()),
              snap.num_nodes() / 4.0);
  };

  Rng rng(5);
  for (int i = 0; i < n / 4 + 6; ++i) {
    const int u = (i * 7) % n;  // distinct rows: 7 is coprime with 64
    std::vector<double> f(dim);
    for (double& x : f) x = rng.Normal();
    expected[u] = f;
    apply(Mutation::UpdateFeatures(u, std::move(f)));
    if (i == n / 8) {
      std::vector<double> added(dim);
      for (double& x : added) x = rng.Normal();
      expected.push_back(added);
      apply(Mutation::AddNode(std::move(added), 1));
    }
  }
  ASSERT_EQ(snap.num_nodes(), n + 1);

  Matrix reference(n + 1, dim);
  for (int r = 0; r <= n; ++r) {
    std::memcpy(reference.Row(r), expected[r].data(),
                static_cast<size_t>(dim) * sizeof(double));
  }
  EXPECT_TRUE(BitwiseEqual(snap.DenseFeatures(), reference));
}

TEST(SnapshotTest, RebuiltRowsMatchFromScratchGraphBitwise) {
  Graph graph = SmallGraph(17);
  auto snap_or = GraphSnapshot::FromGraph(graph);
  ASSERT_TRUE(snap_or.ok());
  GraphSnapshot snap = std::move(snap_or).value();
  Rng rng(77);
  for (int step = 0; step < 8; ++step) {
    std::vector<Mutation> batch;
    for (int i = 0; i < 3; ++i) batch.push_back(RandomMutation(snap, &rng));
    auto applied = snap.Apply(batch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    snap = std::move(applied).value().first;
  }
  // For unweighted graphs the degrees are exact integers, so the rebuilt
  // normalized rows must match a from-scratch Graph build bitwise.
  Graph rebuilt = snap.MaterializeGraph();
  const SparseMatrix& expected = rebuilt.Adjacency(AdjacencyKind::kSymNorm);
  const DeltaCsr& adj = snap.adjacency();
  ASSERT_EQ(adj.rows(), expected.rows());
  ASSERT_EQ(adj.nnz(), expected.nnz());
  for (int r = 0; r < adj.rows(); ++r) {
    const DeltaCsr::RowRef row = adj.Row(r);
    ASSERT_EQ(row.nnz, expected.RowNnz(r)) << "row " << r;
    const int64_t begin = expected.row_ptr()[r];
    EXPECT_EQ(std::memcmp(row.cols, expected.col_idx().data() + begin,
                          static_cast<size_t>(row.nnz) * sizeof(int)),
              0)
        << "row " << r;
    EXPECT_EQ(std::memcmp(row.vals, expected.values().data() + begin,
                          static_cast<size_t>(row.nnz) * sizeof(double)),
              0)
        << "row " << r;
  }
  // Features and labels survived the trip too.
  EXPECT_TRUE(BitwiseEqual(snap.DenseFeatures(), rebuilt.features()));
  for (int r = 0; r < snap.num_nodes(); ++r) {
    EXPECT_EQ(snap.label(r), rebuilt.labels()[r]);
  }
}

// The tentpole oracle: after every randomized batch, the incrementally
// patched H^(L) is bitwise identical to a cold full recompute on the same
// snapshot, and matches the zoo's ForwardInference on an independently
// rebuilt static Graph.
class IncrementalOracleTest : public ::testing::TestWithParam<ModelFamily> {};

TEST_P(IncrementalOracleTest, TwentyRandomBatchesStayBitwiseExact) {
  Graph graph = SmallGraph(41, /*num_nodes=*/64);
  serve::ServableModel model = MakeServable(graph, 1, GetParam());
  auto snap_or = GraphSnapshot::FromGraph(graph);
  ASSERT_TRUE(snap_or.ok());
  GraphSnapshot snap = std::move(snap_or).value();

  IncrementalPropagator prop(model.config, LayerParams(model));
  prop.FullRefresh(snap);
  ASSERT_TRUE(BitwiseEqual(*prop.hidden(), prop.ComputeFull(snap)));

  Rng rng(1234);
  int incremental_refreshes = 0;
  for (int step = 0; step < 20; ++step) {
    std::vector<Mutation> batch;
    const int batch_size = 1 + static_cast<int>(rng.UniformInt(4));
    for (int i = 0; i < batch_size; ++i) {
      batch.push_back(RandomMutation(snap, &rng));
    }
    auto applied = snap.Apply(batch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    auto [next, delta] = std::move(applied).value();
    snap = std::move(next);
    auto stats = prop.Refresh(snap, delta);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    if (stats.value().incremental) ++incremental_refreshes;

    // Exact oracle: same snapshot, cold recompute through the same kernels.
    ASSERT_TRUE(BitwiseEqual(*prop.hidden(), prop.ComputeFull(snap)))
        << "step " << step << " diverged from the cold recompute";
  }
  // The dirty sets must have stayed small enough to exercise the
  // incremental path, not just the fallback.
  EXPECT_GT(incremental_refreshes, 0);

  // Cross-path: the zoo's frozen forward on an independently rebuilt
  // static Graph. Unweighted mutations keep every normalization input
  // exactly integral, so even this independent path agrees bitwise.
  Graph rebuilt = snap.MaterializeGraph();
  std::unique_ptr<GnnModel> zoo = BuildModel(model.config);
  zoo->params()->Restore(LayerParams(model));
  Matrix expected = zoo->ForwardInference(rebuilt, rebuilt.features());
  EXPECT_TRUE(BitwiseEqual(*prop.hidden(), expected));
}

INSTANTIATE_TEST_SUITE_P(Families, IncrementalOracleTest,
                         ::testing::Values(ModelFamily::kGcn,
                                           ModelFamily::kSgc));

TEST(IncrementalTest, FallsBackToFullRefreshWhenMostRowsDirty) {
  Graph graph = SmallGraph(19, /*num_nodes=*/32);
  serve::ServableModel model = MakeServable(graph, 1);
  auto snap_or = GraphSnapshot::FromGraph(graph);
  ASSERT_TRUE(snap_or.ok());
  GraphSnapshot snap = std::move(snap_or).value();
  RefreshOptions options;
  options.full_refresh_fraction = 0.05;  // force the fallback
  IncrementalPropagator prop(model.config, LayerParams(model), options);
  prop.FullRefresh(snap);
  Rng rng(3);
  auto applied = snap.Apply({RandomMutation(snap, &rng)});
  ASSERT_TRUE(applied.ok());
  auto [next, delta] = std::move(applied).value();
  snap = std::move(next);
  auto stats = prop.Refresh(snap, delta);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats.value().incremental);
  EXPECT_TRUE(BitwiseEqual(*prop.hidden(), prop.ComputeFull(snap)));
}

TEST(IncrementalTest, UnsupportedFamiliesAreGated) {
  ModelConfig config;
  config.family = ModelFamily::kGat;
  EXPECT_FALSE(StageCore::Supports(config));
  config.family = ModelFamily::kGcn;
  EXPECT_TRUE(StageCore::Supports(config));
  config.family = ModelFamily::kSgc;
  EXPECT_TRUE(StageCore::Supports(config));
}

TEST(StreamingServerTest, EndStateMatchesStaticEngineOnRebuiltGraph) {
  Graph graph = SmallGraph(53, /*num_nodes=*/56);
  serve::ServableModel model = MakeServable(graph, 4);
  auto server_or = StreamingServer::Create(graph, model);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  StreamingServer& server = *server_or.value();

  Rng rng(99);
  for (int step = 0; step < 6; ++step) {
    for (int i = 0; i < 5; ++i) {
      server.Submit(RandomMutation(*server.snapshot(), &rng));
    }
    auto stats = server.ApplyPending();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  }
  EXPECT_EQ(server.version(), 6u);
  EXPECT_EQ(server.pending(), 0u);

  // Static engine on the from-scratch rebuild must agree bitwise.
  Graph rebuilt = server.snapshot()->MaterializeGraph();
  serve::InferenceEngine engine(&rebuilt, serve::EngineOptions{});
  std::vector<int> nodes;
  for (int i = 0; i < rebuilt.num_nodes(); i += 3) nodes.push_back(i);
  auto streamed = server.PredictNodes(nodes);
  auto statically = engine.PredictNodes(model, nodes);
  ASSERT_TRUE(streamed.ok());
  ASSERT_TRUE(statically.ok());
  EXPECT_TRUE(BitwiseEqual(streamed.value(), statically.value()));
}

TEST(StreamingServerTest, RejectedBatchLeavesPublishedStateIntact) {
  Graph graph = SmallGraph(61);
  serve::ServableModel model = MakeServable(graph, 1);
  auto server_or = StreamingServer::Create(graph, model);
  ASSERT_TRUE(server_or.ok());
  StreamingServer& server = *server_or.value();
  const uint64_t version = server.version();
  server.Submit(Mutation::AddEdge(0, graph.num_nodes() + 5));  // bad range
  auto stats = server.ApplyPending();
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(server.version(), version);
  auto probs = server.PredictNodes({0, 1});
  EXPECT_TRUE(probs.ok());
}

TEST(StreamingServerTest, ConcurrentReadersDuringApplyPending) {
  Graph graph = SmallGraph(67);
  serve::ServableModel model = MakeServable(graph, 2);
  auto server_or = StreamingServer::Create(graph, model);
  ASSERT_TRUE(server_or.ok());
  StreamingServer& server = *server_or.value();

  std::atomic<bool> stop{false};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      std::vector<int> nodes = {0, 1, 2, 3};
      // do/while: at least one read happens even if the mutator finishes
      // all its batches before this thread is first scheduled.
      do {
        auto probs = server.PredictNodes(nodes);
        ASSERT_TRUE(probs.ok());
        // Rows are softmax outputs whatever version they came from.
        for (int r = 0; r < probs.value().rows(); ++r) {
          double total = 0.0;
          for (int c = 0; c < probs.value().cols(); ++c) {
            total += probs.value()(r, c);
          }
          EXPECT_NEAR(total, 1.0, 1e-9);
        }
        reads.fetch_add(1);
      } while (!stop.load());
    });
  }
  Rng rng(7);
  for (int step = 0; step < 10; ++step) {
    for (int i = 0; i < 4; ++i) {
      server.Submit(RandomMutation(*server.snapshot(), &rng));
    }
    auto stats = server.ApplyPending();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(reads.load(), 0);
}

TEST(StreamingServerTest, PublishToSwapsEngineAndInstallsHiddenStates) {
  Graph graph = SmallGraph(71);
  serve::ServableModel model = MakeServable(graph, 3);
  auto server_or = StreamingServer::Create(graph, model);
  ASSERT_TRUE(server_or.ok());
  StreamingServer& server = *server_or.value();

  serve::InferenceEngine engine(&graph, serve::EngineOptions{});
  EXPECT_EQ(engine.graph_generation(), 0u);

  Rng rng(15);
  for (int i = 0; i < 6; ++i) {
    server.Submit(RandomMutation(*server.snapshot(), &rng));
  }
  ASSERT_TRUE(server.ApplyPending().ok());
  ASSERT_TRUE(server.PublishTo(&engine).ok());
  EXPECT_EQ(engine.graph_generation(), server.version() + 1);

  // The installed hidden states mean the first post-swap query is a cache
  // hit, and its answers match the streaming path bitwise.
  const int64_t misses_before = engine.cache().misses();
  std::vector<int> nodes = {0, 3, 9};
  auto from_engine = engine.PredictNodes(model, nodes);
  ASSERT_TRUE(from_engine.ok()) << from_engine.status().ToString();
  EXPECT_EQ(engine.cache().misses(), misses_before);
  auto from_server = server.PredictNodes(nodes);
  ASSERT_TRUE(from_server.ok());
  EXPECT_TRUE(BitwiseEqual(from_engine.value(), from_server.value()));

  // Re-publishing at the same version only refreshes the installed states.
  EXPECT_TRUE(server.PublishTo(&engine).ok());
  EXPECT_EQ(engine.graph_generation(), server.version() + 1);
}

TEST(InferenceEngineTest, SwapGraphRequiresIncreasingGenerations) {
  Graph graph = SmallGraph(73);
  Graph other = SmallGraph(74);
  serve::InferenceEngine engine(&graph, serve::EngineOptions{});
  auto borrow = [](const Graph& g) {
    return std::make_shared<const serve::ServingGraph>(&g);
  };
  EXPECT_FALSE(engine.SwapGraph(borrow(other), 0).ok());
  EXPECT_TRUE(engine.SwapGraph(borrow(other), 2).ok());
  EXPECT_FALSE(engine.SwapGraph(borrow(graph), 2).ok());
  EXPECT_FALSE(engine.SwapGraph(nullptr, 3).ok());
  EXPECT_EQ(engine.graph_generation(), 2u);
}

int64_t GraphBuilds() {
  return obs::MetricsRegistry::Global()
      .GetCounter("serve.graph_builds")
      ->Value();
}

// One mutator batch of a single random edit (a batch of several could
// remove one edge twice), applied.
void ApplyRandomMutation(StreamingServer* server, Rng* rng) {
  server->Submit(RandomMutation(*server->snapshot(), rng));
  auto stats = server->ApplyPending();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
}

// Readers query the engine while the mutator streams edge churn that trips
// compaction, and with it an RCM re-reorder, again and again. Each request
// pins one (graph, generation) view, so its id translation always matches
// the hidden states it gathers from: every answer is bitwise one the stream
// itself gave at some published version, never old rows read through a new
// permutation.
TEST(StreamingServerTest, EngineAnswersAreAPublishedVersionAcrossReorders) {
  Graph graph = SmallGraph(79);
  serve::ServableModel model = MakeServable(graph, 5);
  StreamOptions options;
  options.reorder = ReorderStrategy::kRcm;
  options.reorder_seed = 3;
  auto server_or = StreamingServer::Create(graph, model, options);
  ASSERT_TRUE(server_or.ok());
  StreamingServer& server = *server_or.value();
  serve::InferenceEngine engine(&graph, serve::EngineOptions{});

  const std::vector<int> fixed = {0, 5, 11, 17, 23, 29, 35, 41, 47};
  std::mutex answers_mu;
  std::vector<Matrix> answers;
  auto record = [&] {
    auto answer = server.PredictNodes(fixed);
    ASSERT_TRUE(answer.ok());
    std::lock_guard<std::mutex> lock(answers_mu);
    answers.push_back(std::move(answer).value());
  };
  record();
  ASSERT_TRUE(server.PublishTo(&engine).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> reads{0}, unmatched{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      do {
        auto probs = engine.PredictNodes(model, fixed);
        ASSERT_TRUE(probs.ok()) << probs.status().ToString();
        std::lock_guard<std::mutex> lock(answers_mu);
        bool matched = false;
        for (const Matrix& answer : answers) {
          matched = matched || BitwiseEqual(probs.value(), answer);
        }
        if (!matched) unmatched.fetch_add(1);
        reads.fetch_add(1);
      } while (!stop.load());
    });
  }
  Rng rng(21);
  int reorders = 0;
  for (int step = 0; step < 150; ++step) {
    const uint64_t before = server.version();
    ApplyRandomMutation(&server, &rng);
    // A re-reorder is one extra version step on top of the batch's.
    if (server.version() == before + 2) ++reorders;
    record();
    ASSERT_TRUE(server.PublishTo(&engine).ok());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GE(reorders, 2);
  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(unmatched.load(), 0);
}

// The stream's own model version is always served from the states PublishTo
// seeds, so no publish — and no read racing one — builds a Graph.
TEST(StreamingServerTest, PublishesAtTheStreamVersionBuildNoGraph) {
  Graph graph = SmallGraph(83);
  serve::ServableModel model = MakeServable(graph, 2);
  StreamOptions options;
  options.reorder = ReorderStrategy::kRcm;
  auto server_or = StreamingServer::Create(graph, model, options);
  ASSERT_TRUE(server_or.ok());
  StreamingServer& server = *server_or.value();
  serve::InferenceEngine engine(&graph, serve::EngineOptions{});
  ASSERT_TRUE(server.PublishTo(&engine).ok());

  const int64_t builds_before = GraphBuilds();
  const int64_t misses_before = engine.cache().misses();
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng reader_rng(100 + t);
      do {
        const int node = static_cast<int>(
            reader_rng.UniformInt(graph.num_nodes()));
        auto probs = engine.PredictNodes(model, {node});
        ASSERT_TRUE(probs.ok()) << probs.status().ToString();
      } while (!stop.load());
    });
  }
  Rng rng(33);
  for (int publish = 0; publish < 200; ++publish) {
    ApplyRandomMutation(&server, &rng);
    ASSERT_TRUE(server.PublishTo(&engine).ok());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(engine.graph_generation(), server.version() + 1);
  EXPECT_EQ(GraphBuilds(), builds_before);
  EXPECT_EQ(engine.cache().misses(), misses_before);
}

// Another model version (a rollout) misses, materializes the published
// snapshot once for the whole generation, and answers bitwise like a cold
// engine on the from-scratch rebuild — unreordered and under RCM.
class LazyServingGraphTest
    : public ::testing::TestWithParam<ReorderStrategy> {};

TEST_P(LazyServingGraphTest, OtherVersionsBuildOneGraphPerGeneration) {
  Graph graph = SmallGraph(89);
  serve::ServableModel model = MakeServable(graph, 1);
  StreamOptions options;
  options.reorder = GetParam();
  auto server_or = StreamingServer::Create(graph, model, options);
  ASSERT_TRUE(server_or.ok());
  StreamingServer& server = *server_or.value();
  serve::InferenceEngine engine(&graph, serve::EngineOptions{});

  Rng rng(41);
  for (int step = 0; step < 30; ++step) ApplyRandomMutation(&server, &rng);
  ASSERT_EQ(server.snapshot()->permutation() != nullptr,
            GetParam() != ReorderStrategy::kNone);
  ASSERT_TRUE(server.PublishTo(&engine).ok());

  const serve::ServableModel rollout =
      MakeServable(graph, 2, ModelFamily::kGcn, /*seed=*/29);
  const serve::ServableModel sgc =
      MakeServable(graph, 3, ModelFamily::kSgc, /*seed=*/31);
  std::vector<int> nodes;
  for (int i = 0; i < graph.num_nodes(); i += 4) nodes.push_back(i);
  const int64_t builds_before = GraphBuilds();
  auto lazy_nodes = engine.PredictNodes(rollout, nodes);
  auto lazy_all = engine.PredictAll(rollout);
  auto lazy_sgc = engine.PredictAll(sgc);
  ASSERT_TRUE(lazy_nodes.ok()) << lazy_nodes.status().ToString();
  ASSERT_TRUE(lazy_all.ok());
  ASSERT_TRUE(lazy_sgc.ok());
  EXPECT_EQ(GraphBuilds(), builds_before + 1);

  Graph rebuilt = server.snapshot()->MaterializeGraph();
  serve::InferenceEngine cold(&rebuilt, serve::EngineOptions{});
  auto cold_nodes = cold.PredictNodes(rollout, nodes);
  auto cold_all = cold.PredictAll(rollout);
  auto cold_sgc = cold.PredictAll(sgc);
  ASSERT_TRUE(cold_nodes.ok());
  ASSERT_TRUE(cold_all.ok());
  ASSERT_TRUE(cold_sgc.ok());
  EXPECT_TRUE(BitwiseEqual(lazy_nodes.value(), cold_nodes.value()));
  EXPECT_TRUE(BitwiseEqual(lazy_all.value(), cold_all.value()));
  EXPECT_TRUE(BitwiseEqual(lazy_sgc.value(), cold_sgc.value()));
  // The stream's version still answers from its seeded states.
  auto seeded = engine.PredictAll(model);
  auto cold_seeded = cold.PredictAll(model);
  ASSERT_TRUE(seeded.ok());
  ASSERT_TRUE(cold_seeded.ok());
  EXPECT_TRUE(BitwiseEqual(seeded.value(), cold_seeded.value()));
  EXPECT_EQ(GraphBuilds(), builds_before + 1);
}

INSTANTIATE_TEST_SUITE_P(Layouts, LazyServingGraphTest,
                         ::testing::Values(ReorderStrategy::kNone,
                                           ReorderStrategy::kRcm));

// The engine is the only holder of a published snapshot once the stream has
// moved on, so swapping past it frees it: memory stays bounded by the live
// version, however long the stream runs.
TEST(StreamingServerTest, RetiredSnapshotsAreFreedAfterTheSwap) {
  Graph graph = SmallGraph(97);
  serve::ServableModel model = MakeServable(graph, 1);
  auto server_or = StreamingServer::Create(graph, model);
  ASSERT_TRUE(server_or.ok());
  StreamingServer& server = *server_or.value();
  serve::InferenceEngine engine(&graph, serve::EngineOptions{});
  const serve::ServableModel rollout =
      MakeServable(graph, 2, ModelFamily::kGcn, /*seed=*/29);

  Rng rng(43);
  ApplyRandomMutation(&server, &rng);
  ASSERT_TRUE(server.PublishTo(&engine).ok());
  std::weak_ptr<const GraphSnapshot> published = server.snapshot();
  // Build this generation's Graph too, so its lifetime is covered.
  ASSERT_TRUE(engine.Warm(rollout).ok());

  ApplyRandomMutation(&server, &rng);
  EXPECT_FALSE(published.expired());  // still the engine's serving graph
  ASSERT_TRUE(server.PublishTo(&engine).ok());
  EXPECT_TRUE(published.expired());

  for (int step = 0; step < 3; ++step) {
    ApplyRandomMutation(&server, &rng);
    ASSERT_TRUE(server.PublishTo(&engine).ok());
  }
  std::weak_ptr<const GraphSnapshot> latest = server.snapshot();
  EXPECT_FALSE(latest.expired());
}

TEST(PropagationCacheTest, PutInvalidateGraphAndMetricsMirror) {
  obs::Counter* evictions =
      obs::MetricsRegistry::Global().GetCounter("serve.cache_evictions");
  obs::Gauge* entries =
      obs::MetricsRegistry::Global().GetGauge("serve.cache_entries");
  const int64_t evictions_before = evictions->Value();

  serve::PropagationCache cache(/*byte_budget=*/0);
  EXPECT_EQ(serve::PropagationKey(serve::GraphId(0), 3), "g0/v3");
  auto value = std::make_shared<const Matrix>(2, 2);
  cache.Put(serve::PropagationKey(serve::GraphId(0), 1), value);
  cache.Put(serve::PropagationKey(serve::GraphId(0), 2), value);
  cache.Put(serve::PropagationKey(serve::GraphId(1), 1), value);
  EXPECT_EQ(cache.num_entries(), 3);
  EXPECT_DOUBLE_EQ(entries->Value(), 3.0);

  // Replacing a key keeps the entry count; old holders keep their value.
  cache.Put(serve::PropagationKey(serve::GraphId(1), 1),
            std::make_shared<const Matrix>(4, 4));
  EXPECT_EQ(cache.num_entries(), 3);

  // Lookup returns a computed entry and counts the hit; a missing key
  // yields null and counts nothing.
  const int64_t hits_before = cache.hits();
  const int64_t misses_before = cache.misses();
  EXPECT_EQ(cache.Lookup(serve::PropagationKey(serve::GraphId(0), 1)),
            value);
  EXPECT_EQ(cache.Lookup(serve::PropagationKey(serve::GraphId(2), 1)),
            nullptr);
  EXPECT_EQ(cache.hits(), hits_before + 1);
  EXPECT_EQ(cache.misses(), misses_before);

  cache.InvalidateGraph(serve::GraphId(0));
  EXPECT_EQ(cache.num_entries(), 1);
  EXPECT_DOUBLE_EQ(entries->Value(), 1.0);
  // Generation 1 products survived.
  bool computed = false;
  cache.GetOrCompute(serve::PropagationKey(serve::GraphId(1), 1), [&] {
    computed = true;
    return Matrix(1, 1);
  });
  EXPECT_FALSE(computed);

  // A byte budget this small evicts on the second insert, and the eviction
  // lands in the process-wide counter.
  serve::PropagationCache tiny(/*byte_budget=*/40);
  tiny.Put("g0/v1", std::make_shared<const Matrix>(2, 2));
  tiny.Put("g0/v2", std::make_shared<const Matrix>(2, 2));
  EXPECT_EQ(tiny.num_entries(), 1);
  EXPECT_EQ(tiny.evictions(), 1);
  EXPECT_GE(evictions->Value(), evictions_before + 1);
}

}  // namespace
}  // namespace ahg::dyn
