// Partitioned execution plane suite (ISSUE 9 tentpole proof). Covers:
//  - partitioner determinism: same (graph, num_parts, seed) produces a
//    byte-identical PartitionPlan across repeated runs and kernel thread
//    counts, and a different seed changes the assignment;
//  - partition quality invariants: every part non-empty, balance within
//    the configured epsilon (plus the rounding slack of FillEmptyParts),
//    cut fraction in [0, 1];
//  - edge cases: P=1 identity plan with a no-exchange fast path, P > n
//    rejected with InvalidArgument, P greater than the number of
//    connected components, a star graph where every edge is cut;
//  - bitwise conformance: PartitionedEngine answers memcmp-identical to a
//    lone InferenceEngine over six synthetic families x {kGcn, kSgc} x
//    P in {1,2,4} x kernel threads in {1,4};
//  - dynamic conformance: after streamed mutation batches ApplyDelta keeps
//    every warmed version bitwise equal to a cold engine on the
//    materialized snapshot graph, and under cut-edge churn on plain and
//    RCM-reordered graphs the local numbering stays append-only and every
//    owned row stays in ascending column rank;
//  - fabric integration: ServePartitioned serves bitwise like the
//    replicated mode, survives a mid-traffic Rollout, routes mutations
//    through the plan, rejects unsupported model families, and routes
//    queries by external id beside concurrent ApplyDelta appends.
// The suite runs under TSan and ASan in CI.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "dyn/mutation.h"
#include "dyn/snapshot.h"
#include "dyn/stages.h"
#include "fabric/fabric.h"
#include "graph/reorder.h"
#include "graph/synthetic.h"
#include "gtest/gtest.h"
#include "nn/linear.h"
#include "obs/metrics.h"
#include "partition/halo_exchange.h"
#include "partition/partitioned_engine.h"
#include "partition/partitioner.h"
#include "partition/plan.h"
#include "serve/inference_engine.h"
#include "serve/model_registry.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ahg::partition {
namespace {

Graph Sbm(uint64_t seed, int num_nodes, int feature_dim = 6,
          double avg_degree = 4.0) {
  SyntheticConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.num_classes = 3;
  cfg.feature_dim = feature_dim;
  cfg.avg_degree = avg_degree;
  cfg.seed = seed;
  return GenerateSbmGraph(cfg);
}

serve::ServableModel MakeServable(const Graph& graph, int version,
                                  ModelFamily family, uint64_t seed) {
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

bool MatricesBitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(double)) == 0;
}

std::vector<int> AllNodes(int n) {
  std::vector<int> nodes(n);
  std::iota(nodes.begin(), nodes.end(), 0);
  return nodes;
}

// --- Partitioner -----------------------------------------------------------

TEST(PartitionerTest, DeterministicAcrossRunsAndThreadCounts) {
  Graph graph = Sbm(7, 600);
  PartitionerOptions options;
  options.seed = 42;
  std::string reference;
  for (int threads : {1, 4}) {
    ScopedNumThreads scoped(threads);
    for (int run = 0; run < 2; ++run) {
      auto plan = PartitionPlan::Build(graph, 4, options);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      const std::string serialized = plan.value().Fingerprint();
      if (reference.empty()) {
        reference = serialized;
      } else {
        EXPECT_EQ(serialized, reference)
            << "plan bytes differ (threads " << threads << " run " << run
            << ")";
      }
    }
  }
  // A different seed must be able to produce a different assignment.
  PartitionerOptions other;
  other.seed = 43;
  auto replan = PartitionPlan::Build(graph, 4, other);
  ASSERT_TRUE(replan.ok());
  EXPECT_NE(replan.value().Fingerprint(), reference);
}

TEST(PartitionerTest, PartsAreNonEmptyBalancedAndCutFractionSane) {
  Graph graph = Sbm(11, 800);
  for (int parts : {2, 3, 4, 7}) {
    PartitionMetrics metrics;
    auto assignment = PartitionGraph(graph, parts, PartitionerOptions{},
                                     &metrics);
    ASSERT_TRUE(assignment.ok()) << assignment.status().ToString();
    std::vector<int> count(parts, 0);
    for (int p : assignment.value()) {
      ASSERT_GE(p, 0);
      ASSERT_LT(p, parts);
      ++count[p];
    }
    for (int p = 0; p < parts; ++p) {
      EXPECT_GT(count[p], 0) << "part " << p << " of " << parts << " empty";
    }
    EXPECT_GE(metrics.edge_cut_fraction, 0.0);
    EXPECT_LE(metrics.edge_cut_fraction, 1.0);
    EXPECT_GE(metrics.balance_factor, 1.0);
    // balance_factor = P * max_part / n; refinement caps parts at
    // (1 + eps) * ceil(n/P), FillEmptyParts can nudge one past it.
    EXPECT_LE(metrics.balance_factor, 1.0 + 0.1 + 0.05)
        << "parts " << parts;
  }
}

TEST(PartitionerTest, InvalidPartCountsAreRejected) {
  Graph graph = Sbm(13, 24);
  EXPECT_EQ(PartitionGraph(graph, 0, {}).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(PartitionGraph(graph, -2, {}).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(PartitionGraph(graph, 25, {}).status().code(),
            Status::Code::kInvalidArgument);
  // P == n is legal: one node per part.
  auto exact = PartitionGraph(graph, 24, {});
  ASSERT_TRUE(exact.ok());
  std::vector<int> count(24, 0);
  for (int p : exact.value()) ++count[p];
  for (int p = 0; p < 24; ++p) EXPECT_EQ(count[p], 1);
}

TEST(PartitionerTest, MorePartsThanConnectedComponents) {
  // Three disjoint communities, split four ways: the partitioner must not
  // crash or leave a part empty even though no 4-way component split
  // exists.
  SyntheticConfig cfg;
  cfg.num_nodes = 90;
  cfg.num_classes = 3;
  cfg.feature_dim = 4;
  cfg.avg_degree = 4.0;
  cfg.seed = 17;
  cfg.homophily = 1.0;  // all edges intra-class: classes stay disconnected
  Graph graph = GenerateSbmGraph(cfg);
  auto plan = PartitionPlan::Build(graph, 4, PartitionerOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  for (int p = 0; p < 4; ++p) {
    EXPECT_GT(plan.value().parts[p].num_owned(), 0) << "part " << p;
  }
}

TEST(PartitionPlanTest, SinglePartIsIdentityWithNoHalo) {
  Graph graph = Sbm(19, 120);
  auto plan = PartitionPlan::Build(graph, 1, PartitionerOptions{});
  ASSERT_TRUE(plan.ok());
  const PartitionPlan& p = plan.value();
  EXPECT_EQ(p.num_parts, 1);
  EXPECT_EQ(p.halo_nodes_total, 0);
  EXPECT_EQ(p.metrics.cut_edges, 0);
  EXPECT_EQ(p.parts[0].num_owned(), graph.num_nodes());
  EXPECT_EQ(p.parts[0].num_halo(), 0);
  for (int g = 0; g < graph.num_nodes(); ++g) {
    EXPECT_EQ(p.part_of[g], 0);
    EXPECT_EQ(p.parts[0].locals[g], g);  // identity local numbering
  }
}

TEST(PartitionPlanTest, StarGraphCutsEveryEdge) {
  // K_{1,12}: center 0, leaves 1..12. Center alone on part 0, leaves round
  // robin on parts 1..3: every edge crosses parts.
  std::vector<Edge> edges;
  for (int leaf = 1; leaf <= 12; ++leaf) {
    edges.push_back({0, leaf, 1.0});
  }
  Matrix features(13, 3);
  for (int r = 0; r < 13; ++r) {
    for (int c = 0; c < 3; ++c) features(r, c) = 0.1 * r + c;
  }
  Graph graph = Graph::Create(13, std::move(edges), /*directed=*/false,
                              std::move(features), {}, 2);
  std::vector<int> part_of(13);
  part_of[0] = 0;
  for (int leaf = 1; leaf <= 12; ++leaf) part_of[leaf] = 1 + (leaf - 1) % 3;
  auto plan = PartitionPlan::BuildFromAssignment(graph, part_of, 4);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().metrics.cut_edges, 12);
  EXPECT_DOUBLE_EQ(plan.value().metrics.edge_cut_fraction, 1.0);
  // Part 0 owns the center and needs every leaf as halo; leaf parts need
  // the center.
  EXPECT_EQ(plan.value().parts[0].num_halo(), 12);
  for (int p = 1; p < 4; ++p) {
    EXPECT_EQ(plan.value().parts[p].num_halo(), 1);
    EXPECT_EQ(plan.value().parts[p].halo_globals[0], 0);
  }

  // All-cut is the worst case for the exchange; conformance must hold.
  serve::ServableModel model =
      MakeServable(graph, 1, ModelFamily::kGcn, 23);
  serve::InferenceEngine reference(&graph, serve::EngineOptions{});
  auto expected = reference.PredictAll(model);
  ASSERT_TRUE(expected.ok());
  auto engine =
      PartitionedEngine::CreateFromPlan(graph, std::move(plan).value());
  ASSERT_TRUE(engine.ok());
  auto got = engine.value()->PredictNodes(model, AllNodes(13));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(MatricesBitwiseEqual(got.value(), expected.value()));
}

TEST(PartitionPlanTest, BuildFromAssignmentValidatesInput) {
  Graph graph = Sbm(29, 30);
  EXPECT_EQ(PartitionPlan::BuildFromAssignment(graph, std::vector<int>(29, 0), 2)
                .status()
                .code(),
            Status::Code::kInvalidArgument);
  std::vector<int> out_of_range(30, 0);
  out_of_range[4] = 2;
  EXPECT_EQ(PartitionPlan::BuildFromAssignment(graph, out_of_range, 2)
                .status()
                .code(),
            Status::Code::kInvalidArgument);
  // An empty part is permitted for externally supplied assignments.
  auto lopsided =
      PartitionPlan::BuildFromAssignment(graph, std::vector<int>(30, 1), 2);
  ASSERT_TRUE(lopsided.ok());
  EXPECT_EQ(lopsided.value().parts[0].num_owned(), 0);
  EXPECT_EQ(lopsided.value().parts[1].num_owned(), 30);
}

// --- Bitwise conformance ---------------------------------------------------

TEST(PartitionConformanceTest, BitwiseIdenticalToLoneEngine) {
  struct Family {
    uint64_t graph_seed;
    int num_nodes;
    int feature_dim;
    double avg_degree;
  };
  // Six synthetic families: dense and sparse SBMs of varying size/width.
  const Family kFamilies[] = {
      {101, 40, 4, 3.0},  {102, 96, 6, 5.0},  {103, 150, 3, 2.0},
      {104, 200, 8, 6.0}, {105, 64, 5, 8.0},  {106, 220, 4, 4.0},
  };
  int version = 1;
  for (const Family& fam : kFamilies) {
    Graph graph = Sbm(fam.graph_seed, fam.num_nodes, fam.feature_dim,
                      fam.avg_degree);
    for (ModelFamily family : {ModelFamily::kGcn, ModelFamily::kSgc}) {
      SCOPED_TRACE("graph seed " + std::to_string(fam.graph_seed) +
                   " family " + std::to_string(static_cast<int>(family)));
      serve::ServableModel model =
          MakeServable(graph, version, family, 200 + version);
      ++version;
      serve::InferenceEngine reference(&graph, serve::EngineOptions{});
      auto expected = reference.PredictAll(model);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      for (int parts : {1, 2, 4}) {
        auto engine = PartitionedEngine::Create(graph, parts);
        ASSERT_TRUE(engine.ok()) << engine.status().ToString();
        for (int threads : {1, 4}) {
          SCOPED_TRACE("parts " + std::to_string(parts) + " threads " +
                       std::to_string(threads));
          ScopedNumThreads scoped(threads);
          auto got =
              engine.value()->PredictNodes(model, AllNodes(graph.num_nodes()));
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_TRUE(MatricesBitwiseEqual(got.value(), expected.value()));
        }
        if (parts == 1) {
          // P=1 fast path: no halo, so nothing ever crosses the exchange.
          EXPECT_EQ(engine.value()->rows_exchanged(), 0);
        }
      }
    }
  }
}

TEST(PartitionedEngineTest, RejectsUnsupportedFamiliesAndBadNodes) {
  Graph graph = Sbm(31, 40);
  auto engine = PartitionedEngine::Create(graph, 2);
  ASSERT_TRUE(engine.ok());
  serve::ServableModel gat = MakeServable(graph, 1, ModelFamily::kGat, 33);
  EXPECT_EQ(engine.value()->Warm(gat).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(engine.value()->PredictNodes(gat, {0}).status().code(),
            Status::Code::kInvalidArgument);
  serve::ServableModel gcn = MakeServable(graph, 2, ModelFamily::kGcn, 34);
  EXPECT_EQ(engine.value()->PredictNodes(gcn, {40}).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(engine.value()->PredictNodes(gcn, {-1}).status().code(),
            Status::Code::kInvalidArgument);
  // Right tensor count, wrong layer shapes: rejected, not aborted in MatMul.
  serve::ServableModel bad_weight =
      MakeServable(graph, 3, ModelFamily::kGcn, 35);
  bad_weight.params[2] = Matrix(bad_weight.config.hidden_dim + 1,
                                bad_weight.config.hidden_dim);
  EXPECT_EQ(engine.value()->Warm(bad_weight).code(),
            Status::Code::kInvalidArgument);
  serve::ServableModel bad_bias = MakeServable(graph, 4, ModelFamily::kSgc, 36);
  bad_bias.params[1] = Matrix(1, bad_bias.config.hidden_dim + 1);
  EXPECT_EQ(engine.value()->Warm(bad_bias).code(),
            Status::Code::kInvalidArgument);
}

// --- Dynamic conformance ---------------------------------------------------

TEST(PartitionDynamicTest, ApplyDeltaMatchesColdEngineOnMaterializedGraph) {
  Graph graph = Sbm(41, 80, 5, 4.0);
  serve::ServableModel gcn = MakeServable(graph, 1, ModelFamily::kGcn, 51);
  serve::ServableModel sgc = MakeServable(graph, 2, ModelFamily::kSgc, 52);

  auto snap0 = dyn::GraphSnapshot::FromGraph(graph);
  ASSERT_TRUE(snap0.ok()) << snap0.status().ToString();
  dyn::GraphSnapshot snap = std::move(snap0).value();

  for (int parts : {1, 2, 4}) {
    SCOPED_TRACE("parts " + std::to_string(parts));
    auto engine_or = PartitionedEngine::Create(graph, parts);
    ASSERT_TRUE(engine_or.ok());
    PartitionedEngine& engine = *engine_or.value();
    // Warm both families BEFORE mutating so ApplyDelta must refresh them.
    ASSERT_TRUE(engine.Warm(gcn).ok());
    ASSERT_TRUE(engine.Warm(sgc).ok());

    dyn::GraphSnapshot current = snap;
    // Edge adds + feature updates, then a node append with fresh edges
    // (exercises the plan-growth and forced-halo paths). On this small
    // graph both dirty more than dyn::kFullRefreshFraction of the rows, so
    // they take the full-recompute fallback. Then two small batches that
    // take the dirty-row path: one feature update, and a node append with
    // a single edge (plan growth and new halo under dirty-row refresh).
    std::vector<double> feat(static_cast<size_t>(graph.feature_dim()), 0.5);
    std::vector<std::vector<dyn::Mutation>> batches;
    {
      std::vector<dyn::Mutation> batch;
      int added = 0;
      for (int u = 0; u < graph.num_nodes() && added < 4; ++u) {
        const int v = (u + graph.num_nodes() / 2) % graph.num_nodes();
        if (u != v && !current.HasEdge(u, v)) {
          batch.push_back(dyn::Mutation::AddEdge(u, v, 1.0));
          ++added;
        }
      }
      batch.push_back(dyn::Mutation::UpdateFeatures(3, feat));
      batch.push_back(dyn::Mutation::UpdateFeatures(42, feat));
      batches.push_back(std::move(batch));
    }
    {
      std::vector<dyn::Mutation> batch;
      batch.push_back(dyn::Mutation::AddNode(feat));
      batch.push_back(
          dyn::Mutation::AddEdge(graph.num_nodes(), 0, 1.0));
      batch.push_back(
          dyn::Mutation::AddEdge(graph.num_nodes(), 17, 1.0));
      batches.push_back(std::move(batch));
    }
    // Nodes 13 and 24 have the smallest 2-hop neighborhoods of this graph.
    batches.push_back({dyn::Mutation::UpdateFeatures(13, feat)});
    batches.push_back({dyn::Mutation::AddNode(feat),
                       dyn::Mutation::AddEdge(graph.num_nodes() + 1, 13, 1.0),
                       dyn::Mutation::AddEdge(graph.num_nodes() + 1, 24, 1.0)});
    const std::vector<bool> mostly_dirty = {true, true, false, false};

    for (size_t b = 0; b < batches.size(); ++b) {
      SCOPED_TRACE("batch " + std::to_string(b));
      auto next = current.Apply(batches[b]);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      auto [applied, delta] = std::move(next).value();
      for (const serve::ServableModel* model : {&gcn, &sgc}) {
        const std::vector<std::vector<int>> levels =
            dyn::StageCore::PerLayerDirtyRows(model->config,
                                              applied.adjacency(), delta);
        const double final_dirty = static_cast<double>(levels.back().size());
        EXPECT_EQ(final_dirty > dyn::kFullRefreshFraction * applied.num_nodes(),
                  mostly_dirty[b])
            << "version " << model->version << ": " << final_dirty << " of "
            << applied.num_nodes() << " rows dirty";
      }
      ASSERT_TRUE(engine.ApplyDelta(applied, delta).ok());
      current = std::move(applied);

      // Oracle: a cold engine over the from-scratch materialized graph.
      Graph rebuilt = current.MaterializeGraph();
      serve::InferenceEngine reference(&rebuilt, serve::EngineOptions{});
      for (const serve::ServableModel* model : {&gcn, &sgc}) {
        auto expected = reference.PredictAll(*model);
        ASSERT_TRUE(expected.ok());
        auto got =
            engine.PredictNodes(*model, AllNodes(rebuilt.num_nodes()));
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_TRUE(MatricesBitwiseEqual(got.value(), expected.value()))
            << "version " << model->version;
      }
    }

    // Version sync guard: replaying the first delta is rejected.
    auto replay = current.Apply({dyn::Mutation::UpdateFeatures(1, feat)});
    ASSERT_TRUE(replay.ok());
    auto [snap2, delta2] = std::move(replay).value();
    dyn::BatchDelta stale = delta2;
    stale.from_version = 0;
    EXPECT_EQ(engine.ApplyDelta(snap2, stale).code(),
              Status::Code::kInvalidArgument);
  }
}

// Every batch adds one cut edge whose endpoints are both new to the other
// endpoint's part, plus one feature update; every tenth batch also appends
// a node. So every batch appends locals, and part 0 gains more locals than
// one growth block holds.
TEST(PartitionDynamicTest, CutEdgeChurnIsAppendOnlyAndBitwise) {
  constexpr int kBatches = 80;
  constexpr int kGrowRows = 64;  // partitioned_engine.cc's growth block
  const Graph plain = Sbm(81, 400, 5, 3.0);
  const Graph rcm = ReorderGraph(plain, ReorderStrategy::kRcm, 81);
  obs::Counter* grows =
      obs::MetricsRegistry::Global().GetCounter("partition.part_grows");
  for (const Graph* graph : {&plain, &rcm}) {
    serve::ServableModel gcn = MakeServable(*graph, 1, ModelFamily::kGcn, 91);
    serve::ServableModel sgc = MakeServable(*graph, 2, ModelFamily::kSgc, 92);
    for (int parts : {2, 4}) {
      SCOPED_TRACE(std::string(graph == &rcm ? "rcm" : "plain") + " parts " +
                   std::to_string(parts));
      auto engine_or = PartitionedEngine::Create(*graph, parts);
      ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
      PartitionedEngine& engine = *engine_or.value();
      ASSERT_TRUE(engine.Warm(gcn).ok());
      ASSERT_TRUE(engine.Warm(sgc).ok());
      auto snap_or = dyn::GraphSnapshot::FromGraph(*graph);
      ASSERT_TRUE(snap_or.ok()) << snap_or.status().ToString();
      dyn::GraphSnapshot current = std::move(snap_or).value();
      const PartitionPlan& plan = engine.plan();
      const int part0_locals = plan.parts[0].num_local();
      const int64_t grows0 = grows->Value();
      Rng rng(static_cast<uint64_t>(parts));
      std::vector<double> feat(static_cast<size_t>(graph->feature_dim()));

      for (int b = 0; b < kBatches; ++b) {
        SCOPED_TRACE("batch " + std::to_string(b));
        const int n = current.num_nodes();
        const int other = 1 + b % (parts - 1);
        auto owner = [&](int node) { return engine.OwnerOf(node).value(); };
        auto holds = [&](int part, int node) {
          return plan.parts[part].local_of.count(current.ToInternal(node)) > 0;
        };
        int u = 0, v = 0;
        do {
          u = static_cast<int>(rng.UniformInt(n));
          v = static_cast<int>(rng.UniformInt(n));
        } while (owner(u) != 0 || owner(v) != other || holds(0, v) ||
                 holds(other, u));
        for (double& f : feat) f = rng.Normal();
        std::vector<dyn::Mutation> batch = {
            dyn::Mutation::AddEdge(u, v),
            dyn::Mutation::UpdateFeatures(static_cast<int>(rng.UniformInt(n)),
                                          feat)};
        if (b % 10 == 9) {
          batch.push_back(dyn::Mutation::AddNode(feat));
          batch.push_back(
              dyn::Mutation::AddEdge(n, static_cast<int>(rng.UniformInt(n))));
        }
        std::vector<std::vector<int>> before;
        for (const PartitionPlan::Part& part : plan.parts) {
          before.push_back(part.locals);
        }
        auto next = current.Apply(batch);
        ASSERT_TRUE(next.ok()) << next.status().ToString();
        auto [applied, delta] = std::move(next).value();
        ASSERT_TRUE(engine.ApplyDelta(applied, delta).ok());
        current = std::move(applied);

        for (int p = 0; p < parts; ++p) {
          const PartitionPlan::Part& part = plan.parts[p];
          // Append-only: every global keeps its local id.
          ASSERT_GE(part.locals.size(), before[p].size());
          EXPECT_TRUE(std::equal(before[p].begin(), before[p].end(),
                                 part.locals.begin()))
              << "part " << p << " renumbered";
          EXPECT_TRUE(std::is_sorted(part.halo_globals.begin(),
                                     part.halo_globals.end()));
          // Rank order: each owned row ascends strictly in column rank.
          ASSERT_NE(part.adj.col_rank(), nullptr);
          for (int l : part.owned_locals) {
            const dyn::DeltaCsr::RowRef row = part.adj.Row(l);
            for (int64_t k = 1; k < row.nnz; ++k) {
              EXPECT_LT(part.adj.RankOf(row.cols[k - 1]),
                        part.adj.RankOf(row.cols[k]));
            }
          }
        }
        EXPECT_GT(plan.parts[0].num_local(), before[0].size());
        EXPECT_GT(plan.parts[other].num_local(), before[other].size());

        Graph rebuilt = current.MaterializeGraph();
        serve::InferenceEngine reference(&rebuilt, serve::EngineOptions{});
        for (const serve::ServableModel* model : {&gcn, &sgc}) {
          auto expected = reference.PredictAll(*model);
          ASSERT_TRUE(expected.ok());
          auto got = engine.PredictNodes(*model, AllNodes(rebuilt.num_nodes()));
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_TRUE(MatricesBitwiseEqual(got.value(), expected.value()))
              << "version " << model->version;
        }
      }
      // Part 0 filled at least one whole growth block.
      EXPECT_GT(plan.parts[0].num_local() - part0_locals, kGrowRows);
      EXPECT_GE(grows->Value() - grows0, 2);
    }
  }
}

// --- Fabric integration ----------------------------------------------------

std::string FreshDir(const std::string& name) {
  const char* base = std::getenv("TMPDIR");
  std::string dir = std::string(base ? base : "/tmp") + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::unique_ptr<serve::ModelRegistry> RegistryWith(
    const std::string& dir, const std::vector<serve::ServableModel>& models) {
  for (const serve::ServableModel& m : models) {
    AHG_CHECK(serve::ModelRegistry::Publish(dir, m.version, m.config,
                                            m.params, m.num_classes)
                  .ok());
  }
  auto registry = std::make_unique<serve::ModelRegistry>(dir);
  AHG_CHECK(registry->Refresh().ok());
  return registry;
}

serve::BatcherOptions TestBatcher(int num_threads) {
  serve::BatcherOptions batcher;
  batcher.max_batch_size = 8;
  batcher.deadline_ms = 0.0;
  batcher.num_threads = num_threads;
  batcher.max_queue_delay_ms = 2.0;
  return batcher;
}

TEST(PartitionedFabricTest, ServesBitwiseAndSurvivesMidTrafficRollout) {
  Graph graph = Sbm(61, 72, 6, 4.0);
  serve::ServableModel v1 = MakeServable(graph, 1, ModelFamily::kGcn, 71);
  serve::ServableModel v2 = MakeServable(graph, 2, ModelFamily::kSgc, 72);
  auto registry = RegistryWith(FreshDir("partition_fabric"), {v1, v2});

  serve::InferenceEngine reference(&graph, serve::EngineOptions{});
  auto ref1 = reference.PredictAll(*registry->Version(1));
  auto ref2 = reference.PredictAll(*registry->Version(2));
  ASSERT_TRUE(ref1.ok() && ref2.ok());

  for (int shards : {2, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    fabric::FabricOptions options;
    options.num_shards = shards;
    options.batcher = TestBatcher(2);
    fabric::ServingFabric fabric(options);
    ASSERT_TRUE(fabric.ServePartitioned(&graph, registry.get()).ok());
    // Partitioned mode is exclusive with the other deployment modes.
    EXPECT_EQ(fabric.ServeGraph(&graph, registry.get()).code(),
              Status::Code::kInvalidArgument);
    EXPECT_EQ(fabric.AddTenant("alpha", &graph, registry.get()).code(),
              Status::Code::kInvalidArgument);
    ASSERT_TRUE(fabric.Rollout(1).ok());

    std::vector<std::future<serve::QueryResult>> futures;
    for (int node = 0; node < graph.num_nodes(); ++node) {
      futures.push_back(fabric.Query(node));
    }
    fabric.Flush();
    for (int node = 0; node < graph.num_nodes(); ++node) {
      serve::QueryResult result = futures[node].get();
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      EXPECT_EQ(result.served_version, 1);
      ASSERT_EQ(static_cast<int>(result.probs.size()), ref1.value().cols());
      EXPECT_EQ(std::memcmp(result.probs.data(), ref1.value().Row(node),
                            result.probs.size() * sizeof(double)),
                0)
          << "node " << node;
    }

    // Mid-traffic rollout onto the SGC version: enqueue, flip, enqueue.
    std::vector<std::future<serve::QueryResult>> mixed;
    for (int node = 0; node < graph.num_nodes() / 2; ++node) {
      mixed.push_back(fabric.Query(node));
    }
    ASSERT_TRUE(fabric.Rollout(2).ok());
    for (int node = graph.num_nodes() / 2; node < graph.num_nodes(); ++node) {
      mixed.push_back(fabric.Query(node));
    }
    fabric.Flush();
    for (int node = 0; node < graph.num_nodes(); ++node) {
      serve::QueryResult result = mixed[node].get();
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      const Matrix& ref =
          result.served_version == 1 ? ref1.value() : ref2.value();
      ASSERT_TRUE(result.served_version == 1 || result.served_version == 2);
      EXPECT_EQ(std::memcmp(result.probs.data(), ref.Row(node),
                            result.probs.size() * sizeof(double)),
                0)
          << "node " << node << " version " << result.served_version;
    }

    // Out-of-range node ids fail fast at the router.
    EXPECT_EQ(fabric.Query(graph.num_nodes()).get().status.code(),
              Status::Code::kInvalidArgument);
    fabric.Drain();
  }
}

TEST(PartitionedFabricTest, MutationsRouteThroughThePlan) {
  Graph graph = Sbm(63, 60, 5, 4.0);
  serve::ServableModel v1 = MakeServable(graph, 1, ModelFamily::kGcn, 73);
  auto registry = RegistryWith(FreshDir("partition_fabric_dyn"), {v1});

  fabric::FabricOptions options;
  options.num_shards = 2;
  options.batcher = TestBatcher(1);
  fabric::ServingFabric fabric(options);
  ASSERT_TRUE(fabric.ServePartitioned(&graph, registry.get()).ok());
  ASSERT_TRUE(fabric.Rollout(1).ok());

  // Mutations address the default tenant only.
  std::vector<double> feat(static_cast<size_t>(graph.feature_dim()), 0.75);
  EXPECT_EQ(fabric
                .SubmitMutation("alpha", dyn::Mutation::UpdateFeatures(0, feat))
                .status()
                .code(),
            Status::Code::kNotFound);
  auto seq0 = fabric.SubmitMutation(fabric::kDefaultTenant,
                                    dyn::Mutation::UpdateFeatures(2, feat));
  auto seq1 = fabric.SubmitMutation(fabric::kDefaultTenant,
                                    dyn::Mutation::AddEdge(2, 31, 1.0));
  ASSERT_TRUE(seq0.ok() && seq1.ok());
  EXPECT_EQ(seq0.value() + 1, seq1.value());
  ASSERT_TRUE(fabric.PublishStream(fabric::kDefaultTenant).ok());

  // Oracle: cold engine over the mutated graph, rebuilt from scratch.
  auto snap = dyn::GraphSnapshot::FromGraph(graph);
  ASSERT_TRUE(snap.ok());
  auto next = snap.value().Apply({dyn::Mutation::UpdateFeatures(2, feat),
                                  dyn::Mutation::AddEdge(2, 31, 1.0)});
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  Graph rebuilt = next.value().first.MaterializeGraph();
  serve::InferenceEngine reference(&rebuilt, serve::EngineOptions{});
  auto expected = reference.PredictAll(*registry->Version(1));
  ASSERT_TRUE(expected.ok());

  for (int node = 0; node < rebuilt.num_nodes(); ++node) {
    serve::QueryResult result = fabric.Query(node).get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(std::memcmp(result.probs.data(), expected.value().Row(node),
                          result.probs.size() * sizeof(double)),
              0)
        << "node " << node;
  }
  EXPECT_EQ(fabric.partitioned_engine()->snapshot_version(), 1u);
}

// Query resolves a node's owner under the engine lock, so it may run
// beside ApplyDelta appending nodes to the ownership map (TSan checks
// this), and it translates external ids on a reordered graph.
TEST(PartitionedFabricTest, QueryRoutesByExternalIdBesideAppends) {
  const Graph graph =
      ReorderGraph(Sbm(67, 80, 5, 4.0), ReorderStrategy::kRcm, 67);
  serve::ServableModel v1 = MakeServable(graph, 1, ModelFamily::kGcn, 77);
  auto registry = RegistryWith(FreshDir("partition_fabric_route"), {v1});
  fabric::FabricOptions options;
  options.num_shards = 2;
  options.batcher = TestBatcher(1);
  fabric::ServingFabric fabric(options);
  ASSERT_TRUE(fabric.ServePartitioned(&graph, registry.get()).ok());
  ASSERT_TRUE(fabric.Rollout(1).ok());
  PartitionedEngine& engine = *fabric.partitioned_engine();

  // Nodes owned by part 0 are answered by part 0's batcher only.
  std::vector<int> owned0;
  for (int node = 0; node < graph.num_nodes(); ++node) {
    StatusOr<int> owner = engine.OwnerOf(node);
    ASSERT_TRUE(owner.ok());
    EXPECT_EQ(owner.value(),
              engine.plan().part_of[graph.permutation()->to_internal[node]]);
    if (owner.value() == 0) owned0.push_back(node);
  }
  const int64_t completed0 = fabric.part_stats(0).Snapshot().completed;
  for (int node : owned0) {
    ASSERT_TRUE(fabric.Query(node).get().status.ok());
  }
  EXPECT_EQ(fabric.part_stats(0).Snapshot().completed - completed0,
            static_cast<int64_t>(owned0.size()));
  EXPECT_EQ(engine.OwnerOf(-1).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(engine.OwnerOf(graph.num_nodes()).status().code(),
            Status::Code::kInvalidArgument);

  // One reader beside 200 AddNode + AddEdge publishes.
  constexpr int kAppends = 200;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread reader([&] {
    for (int node = 0; !done.load(); node = (node + 7) % graph.num_nodes()) {
      if (!fabric.Query(node).get().status.ok()) ++failures;
    }
  });
  std::vector<double> feat(static_cast<size_t>(graph.feature_dim()), 0.5);
  for (int i = 0; i < kAppends; ++i) {
    const int added = graph.num_nodes() + i;
    ASSERT_TRUE(fabric
                    .SubmitMutation(fabric::kDefaultTenant,
                                    dyn::Mutation::AddNode(feat))
                    .ok());
    ASSERT_TRUE(fabric
                    .SubmitMutation(fabric::kDefaultTenant,
                                    dyn::Mutation::AddEdge(
                                        added, i % graph.num_nodes()))
                    .ok());
    ASSERT_TRUE(fabric.PublishStream(fabric::kDefaultTenant).ok());
  }
  done = true;
  reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(engine.OwnerOf(graph.num_nodes() + kAppends - 1).ok());
  fabric.Drain();
}

TEST(PartitionedFabricTest, RolloutRejectsUnsupportedFamilyWithoutFlip) {
  Graph graph = Sbm(65, 48, 5, 3.0);
  serve::ServableModel v1 = MakeServable(graph, 1, ModelFamily::kGcn, 75);
  serve::ServableModel v2 = MakeServable(graph, 2, ModelFamily::kGat, 76);
  auto registry = RegistryWith(FreshDir("partition_fabric_gat"), {v1, v2});

  fabric::FabricOptions options;
  options.num_shards = 2;
  options.batcher = TestBatcher(1);
  fabric::ServingFabric fabric(options);
  ASSERT_TRUE(fabric.ServePartitioned(&graph, registry.get()).ok());
  ASSERT_TRUE(fabric.Rollout(1).ok());
  EXPECT_EQ(fabric.Rollout(2).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(fabric.pinned_version(), 1);  // prepare failed, no flip
  EXPECT_EQ(fabric.Rollout(99).code(), Status::Code::kNotFound);
  serve::QueryResult result = fabric.Query(0).get();
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.served_version, 1);
}

}  // namespace
}  // namespace ahg::partition
