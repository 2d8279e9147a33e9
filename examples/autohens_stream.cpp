// Dynamic-graph streaming demo: the serving path under live mutations.
//
// Builds a synthetic SBM graph, stands up a StreamingServer (snapshot v0 +
// cold propagation for an untrained GCN), then replays a randomized stream
// of unweighted mutations — edge inserts/deletes, feature updates, node
// adds — in batches. Each ApplyPending() folds one batch into a new
// copy-on-write GraphSnapshot version and patches the cached hidden states
// incrementally over the k-hop dirty rows; queries keep serving across
// every version swap.
//
// At the end the stream's final predictions are checked against a
// from-scratch rebuild: MaterializeGraph() + a fresh InferenceEngine that
// recomputes propagation cold. The dynamic subsystem guarantees bitwise
// equality, so the comparison is exact (memcmp), not a tolerance test.
// With --assert-match a mismatch (or any rejected batch) exits non-zero —
// the CI dyn-smoke contract.
//
// Usage:
//   autohens_stream [--nodes N] [--mutations M] [--batch B] [--seed S]
//                   [--reorder none|rcm|hub|shuffle]
//                   [--assert-match] [--metrics-out FILE]
//
// --reorder runs the locality pass on the base graph before the server is
// created AND re-runs it whenever a DeltaCsr compaction fires mid-stream
// (compaction is the re-reorder point: overlays fold into fresh bases, the
// cached layer states are row-gathered with zero FLOPs). The final memcmp
// against the cold rebuild holds either way — that is the conformance gate
// CI runs with `--reorder rcm --assert-match`.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "dyn/mutation.h"
#include "dyn/snapshot.h"
#include "dyn/stream_server.h"
#include "graph/reorder.h"
#include "graph/synthetic.h"
#include "nn/linear.h"
#include "obs/metrics.h"
#include "serve/inference_engine.h"
#include "serve/model_registry.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

const char* FlagValue(int argc, char** argv, const char* name,
                      const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

// A random valid mutation against the server's current snapshot.
// Unweighted (weight 1.0) so degree arithmetic stays integral and the
// final cross-path comparison against the rebuilt Graph is bitwise exact.
ahg::dyn::Mutation RandomMutation(const ahg::dyn::GraphSnapshot& snap,
                                  ahg::Rng* rng) {
  using ahg::dyn::Mutation;
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
      // Mutations speak external ids; the raw adjacency lives in the
      // snapshot's (possibly locality-reordered) internal order, so the
      // row lookup and the sampled column both cross the boundary once.
      const int u = static_cast<int>(rng->UniformInt(n));
      const ahg::dyn::DeltaCsr::RowRef row =
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
    return Mutation::AddNode(
        std::move(f),
        static_cast<int>(rng->UniformInt(snap.num_classes())));
  }
}

bool BitwiseEqual(const ahg::Matrix& a, const ahg::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int r = 0; r < a.rows(); ++r) {
    if (std::memcmp(a.Row(r), b.Row(r),
                    static_cast<size_t>(a.cols()) * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ahg;
  using namespace ahg::dyn;

  // Defaults keep batches inside the incremental regime: an edge mutation
  // dirties both endpoints plus every renormalized neighbor row, and the
  // propagator expands that seed one hop per layer, so ~10 scattered
  // mutations reach a few thousand of 12000 rows — under the 50 %
  // full-refresh fallback threshold.
  const int num_nodes = std::atoi(FlagValue(argc, argv, "--nodes", "12000"));
  const int num_mutations =
      std::atoi(FlagValue(argc, argv, "--mutations", "1000"));
  const int batch = std::atoi(FlagValue(argc, argv, "--batch", "10"));
  const uint64_t seed =
      static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "--seed", "29")));
  const bool assert_match = HasFlag(argc, argv, "--assert-match");
  const std::string metrics_out = FlagValue(argc, argv, "--metrics-out", "");

  SyntheticConfig cfg;
  cfg.name = "streaming";
  cfg.num_nodes = num_nodes;
  cfg.num_classes = 5;
  cfg.feature_dim = 16;
  cfg.avg_degree = 5.0;
  cfg.seed = seed;
  Graph graph = GenerateSbmGraph(cfg);
  std::printf("base graph: %d nodes, %lld edges\n", graph.num_nodes(),
              static_cast<long long>(graph.num_edges()));

  StatusOr<ReorderStrategy> strategy_or =
      ParseReorderStrategy(FlagValue(argc, argv, "--reorder", "none"));
  if (!strategy_or.ok()) {
    std::fprintf(stderr, "%s\n", strategy_or.status().ToString().c_str());
    return 1;
  }
  const ReorderStrategy reorder = strategy_or.value();
  if (reorder != ReorderStrategy::kNone) {
    graph = ReorderGraph(graph, reorder, seed);
    std::printf("reorder=%s applied to the base graph; compaction re-runs "
                "it mid-stream\n",
                ReorderStrategyName(reorder));
  }

  // Untrained GCN in ServableModel layout (zoo weights, head W, head b);
  // the demo exercises the serving plumbing, not accuracy.
  serve::ServableModel model;
  model.version = 1;
  model.num_classes = graph.num_classes();
  model.config.family = ModelFamily::kGcn;
  model.config.in_dim = graph.feature_dim();
  model.config.hidden_dim = 32;
  model.config.num_layers = 2;
  model.config.seed = seed ^ 0xabcdULL;
  std::unique_ptr<GnnModel> zoo = BuildModel(model.config);
  Rng head_rng(model.config.seed ^ 0x5ca1ab1eULL);
  Linear head(zoo->params(), model.config.hidden_dim, model.num_classes,
              /*bias=*/true, &head_rng);
  model.params = zoo->params()->Snapshot();

  StreamOptions stream_options;
  stream_options.reorder = reorder;
  stream_options.reorder_seed = seed;
  auto server_or = StreamingServer::Create(graph, model, stream_options);
  if (!server_or.ok()) {
    std::fprintf(stderr, "server create failed: %s\n",
                 server_or.status().ToString().c_str());
    return 1;
  }
  StreamingServer& server = *server_or.value();

  Rng rng(seed ^ 0x57ea3ULL);
  Stopwatch replay;
  int64_t incremental = 0, full = 0, rows_refreshed = 0, rejected = 0;
  int submitted = 0;
  while (submitted < num_mutations) {
    const int take = std::min(batch, num_mutations - submitted);
    for (int i = 0; i < take; ++i) {
      server.Submit(RandomMutation(*server.snapshot(), &rng));
    }
    submitted += take;
    auto stats = server.ApplyPending();
    if (!stats.ok()) {
      std::fprintf(stderr, "batch rejected: %s\n",
                   stats.status().ToString().c_str());
      ++rejected;
      continue;
    }
    stats.value().incremental ? ++incremental : ++full;
    rows_refreshed += stats.value().rows_refreshed;
    // A query in the middle of the stream: serving never blocks on apply.
    auto probs = server.PredictNodes({0, 1, 2});
    if (!probs.ok()) {
      std::fprintf(stderr, "mid-stream predict failed: %s\n",
                   probs.status().ToString().c_str());
      return 1;
    }
  }
  const double replay_s = replay.ElapsedSeconds();

  std::shared_ptr<const GraphSnapshot> final_snap = server.snapshot();
  std::printf(
      "replayed %d mutations in %d batches (%.3fs): v%llu, %d nodes, "
      "%lld edges\n",
      submitted, static_cast<int>(incremental + full + rejected), replay_s,
      static_cast<unsigned long long>(server.version()),
      final_snap->num_nodes(),
      static_cast<long long>(final_snap->num_edges()));
  std::printf(
      "refreshes: %lld incremental, %lld full, %lld rows patched, "
      "%lld rejected batches\n",
      static_cast<long long>(incremental), static_cast<long long>(full),
      static_cast<long long>(rows_refreshed),
      static_cast<long long>(rejected));

  // From-scratch oracle: rebuild the final graph and recompute propagation
  // cold on a fresh static engine. The stream's incrementally patched
  // predictions must agree bitwise.
  Stopwatch rebuild_watch;
  Graph rebuilt = final_snap->MaterializeGraph();
  serve::InferenceEngine engine(&rebuilt, serve::EngineOptions{});
  std::vector<int> nodes;
  for (int i = 0; i < rebuilt.num_nodes(); ++i) nodes.push_back(i);
  auto streamed = server.PredictNodes(nodes);
  auto statically = engine.PredictNodes(model, nodes);
  if (!streamed.ok() || !statically.ok()) {
    std::fprintf(stderr, "final predictions failed: %s / %s\n",
                 streamed.status().ToString().c_str(),
                 statically.status().ToString().c_str());
    return 1;
  }
  const bool match = BitwiseEqual(streamed.value(), statically.value());
  std::printf("from-scratch rebuild check (%.3fs): %s\n",
              rebuild_watch.ElapsedSeconds(),
              match ? "bitwise match over all nodes" : "MISMATCH");

  if (!metrics_out.empty()) {
    if (Status s = obs::MetricsRegistry::Global().WriteTsv(metrics_out);
        !s.ok()) {
      std::fprintf(stderr, "metrics write failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }

  if (assert_match && (!match || rejected > 0)) {
    std::fprintf(stderr,
                 "FAIL: match=%d rejected_batches=%lld under --assert-match\n",
                 match ? 1 : 0, static_cast<long long>(rejected));
    return 1;
  }
  return 0;
}
