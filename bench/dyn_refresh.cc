// Dynamic-graph refresh bench: incremental propagation patch vs cold full
// recompute on a 50k-node SBM graph (GCN, hidden 64, L = 2).
//
// Mutation batches are built from BFS-ordered seed prefixes so the final
// L-hop dirty set lands near a target fraction of the graph: 1%, 5% and
// 20%. For each scenario the bench times
//
//   apply   GraphSnapshot::Apply of the batch (COW row rebuilds)
//   inc     IncrementalPropagator::Refresh (dirty rows + frontier only)
//   full    a cold ComputeFull on the same snapshot (the baseline every
//           static serving path would pay)
//   publish StreamingServer::PublishTo of the same batch into a fresh
//           InferenceEngine (a StreamingServer fed the same batches
//           mirrors the bench's snapshot chain)
//
// and verifies the patched hidden states stay bitwise identical to the
// cold recompute. Each of 11 repeats times all three once (every repeat
// patches a fresh copy of the pre-batch propagator and is memcmp-checked
// against the cold oracle), and the gates read the median of per-repeat
// ratios, so host interference hits both sides of a ratio alike and one
// noisy repeat cannot decide a gate. Asserted in-process at <= 5% dirty, exiting
// non-zero otherwise so CI can gate on it: the median full/inc ratio is
// >= 5x, and at 5% dirty the median publish/inc ratio is <= 1 — publishing
// a batch must cost no more than refreshing it.
//
// A final scenario streams edge-add batches until DeltaCsr compaction
// fires, re-reorders the folded snapshot with the locality pass (the same
// compaction-is-the-re-reorder-point rule stream_server.cc applies),
// row-gathers the propagator state into the new order, and re-asserts the
// 5x bound at <= 5% dirty on the reordered snapshot.
//
// Usage: dyn_refresh [--fast] [--trace-out FILE] [--metrics-out FILE]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/bench_util.h"
#include "dyn/incremental.h"
#include "dyn/snapshot.h"
#include "dyn/stream_server.h"
#include "graph/reorder.h"
#include "graph/synthetic.h"
#include "nn/linear.h"
#include "serve/inference_engine.h"
#include "serve/model_registry.h"
#include "util/bitset.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace ahg::dyn {
namespace {

// BFS order over the snapshot's raw adjacency, restarting on every
// component, so seed prefixes are spatially clustered.
std::vector<int> BfsOrder(const GraphSnapshot& snap) {
  const int n = snap.num_nodes();
  std::vector<int> order;
  order.reserve(n);
  DynamicBitset seen(n);
  for (int root = 0; root < n; ++root) {
    if (seen.Test(root)) continue;
    seen.Set(root);
    std::deque<int> queue = {root};
    while (!queue.empty()) {
      const int u = queue.front();
      queue.pop_front();
      order.push_back(u);
      const DeltaCsr::RowRef row = snap.raw_adjacency().Row(u);
      for (int64_t e = 0; e < row.nnz; ++e) {
        if (seen.Set(row.cols[e])) queue.push_back(row.cols[e]);
      }
    }
  }
  return order;
}

// Final dirty fraction a feature-update seed set would reach after
// `hops` frontier expansions (mirrors IncrementalPropagator's dirty-set
// math with an empty adjacency-dirty set).
double ExpandedFraction(const GraphSnapshot& snap,
                        const std::vector<int>& seeds, int hops) {
  const int n = snap.num_nodes();
  DynamicBitset frontier(n);
  for (int s : seeds) frontier.Set(s);
  for (int h = 0; h < hops; ++h) {
    DynamicBitset next(n);
    for (int r : frontier.ToSortedVector()) {
      const DeltaCsr::RowRef row = snap.adjacency().Row(r);
      for (int64_t e = 0; e < row.nnz; ++e) next.Set(row.cols[e]);
    }
    frontier = std::move(next);
  }
  return static_cast<double>(frontier.Count()) / n;
}

// Largest BFS prefix whose L-hop expansion stays at or under `target`
// (binary search; expansions are cheap bitset sweeps).
std::vector<int> SeedsForTarget(const GraphSnapshot& snap,
                                const std::vector<int>& bfs, int hops,
                                double target) {
  int lo = 1, hi = static_cast<int>(bfs.size());
  while (lo < hi) {
    const int mid = lo + (hi - lo + 1) / 2;
    std::vector<int> prefix(bfs.begin(), bfs.begin() + mid);
    if (ExpandedFraction(snap, prefix, hops) <= target) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return std::vector<int>(bfs.begin(), bfs.begin() + lo);
}

// Timed repeats of each scenario's incremental refresh, full refresh and
// publish.
constexpr int kRepeats = 11;
constexpr int kReorderSeed = 29;

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

int Main(int argc, char** argv) {
  const bool fast = ahg::bench::FastMode(argc, argv);
  const ahg::bench::ObsFlags obs_flags =
      ahg::bench::ParseObsFlags(argc, argv);

  SyntheticConfig cfg;
  cfg.name = "dyn-bench";
  cfg.num_nodes = fast ? 5000 : 50000;
  cfg.num_classes = 5;
  cfg.feature_dim = 32;
  cfg.avg_degree = 6.0;
  cfg.seed = 7;
  Graph graph = GenerateSbmGraph(cfg);

  serve::ServableModel model;
  model.version = 1;
  model.num_classes = graph.num_classes();
  model.config.family = ModelFamily::kGcn;
  model.config.in_dim = graph.feature_dim();
  model.config.hidden_dim = 64;
  model.config.num_layers = 2;
  model.config.seed = 11;
  std::unique_ptr<GnnModel> zoo = BuildModel(model.config);
  Rng head_rng(model.config.seed ^ 0x5ca1ab1eULL);
  Linear head(zoo->params(), model.config.hidden_dim, model.num_classes,
              /*bias=*/true, &head_rng);
  model.params = zoo->params()->Snapshot();
  std::vector<Matrix> layer_params(model.params.begin(),
                                   model.params.end() - 2);

  auto snap_or = GraphSnapshot::FromGraph(graph);
  if (!snap_or.ok()) {
    std::fprintf(stderr, "snapshot: %s\n",
                 snap_or.status().ToString().c_str());
    return 1;
  }
  GraphSnapshot snap = std::move(snap_or).value();

  RefreshOptions refresh_options;
  refresh_options.full_refresh_fraction = 0.6;  // keep 20% incremental
  IncrementalPropagator prop(model.config, std::move(layer_params),
                             refresh_options);
  Stopwatch cold_watch;
  prop.FullRefresh(snap);
  const double cold_ms = cold_watch.ElapsedMillis();
  std::printf("dyn_refresh: %d nodes, %lld edges, cold refresh %.1f ms\n",
              snap.num_nodes(), static_cast<long long>(snap.num_edges()),
              cold_ms);

  // The publish side: a server that applies every batch the bench applies
  // and re-reorders where the bench does, so its published state is the
  // bench's snapshot and hidden states (checked per scenario).
  StreamOptions stream_options;
  stream_options.refresh = refresh_options;
  stream_options.reorder = ReorderStrategy::kRcm;
  stream_options.reorder_seed = kReorderSeed;
  auto server_or = StreamingServer::Create(graph, model, stream_options);
  if (!server_or.ok()) {
    std::fprintf(stderr, "stream server: %s\n",
                 server_or.status().ToString().c_str());
    return 1;
  }
  StreamingServer& server = *server_or.value();
  auto mirror = [&server](const std::vector<Mutation>& batch) {
    for (const Mutation& m : batch) server.Submit(m);
    return server.ApplyPending().status();
  };

  Rng rng(23);

  ahg::bench::TablePrinter table(
      {"dirty_target", "dirty_actual", "seeds", "apply_ms", "inc_ms",
       "full_ms", "publish_ms", "speedup", "publish/inc"});
  bool ok = true;
  // One timed feature-update scenario at `target` dirty fraction; rows of
  // the table. Recomputes the BFS order each time because edge-add batches
  // (the compaction scenario below) change the structure mid-bench.
  auto run_scenario = [&](double target, const std::string& label) {
    const std::vector<int> bfs = BfsOrder(snap);
    std::vector<int> seeds =
        SeedsForTarget(snap, bfs, model.config.num_layers, target);
    std::vector<Mutation> batch;
    batch.reserve(seeds.size());
    for (int s : seeds) {
      std::vector<double> f(snap.feature_dim());
      for (double& x : f) x = rng.Normal();
      batch.push_back(Mutation::UpdateFeatures(s, std::move(f)));
    }

    Stopwatch apply_watch;
    auto applied = snap.Apply(batch);
    const double apply_ms = apply_watch.ElapsedMillis();
    if (!applied.ok()) {
      std::fprintf(stderr, "apply: %s\n",
                   applied.status().ToString().c_str());
      return false;
    }
    auto [next, delta] = std::move(applied).value();
    snap = std::move(next);
    const Status mirrored = mirror(batch);
    if (!mirrored.ok()) {
      std::fprintf(stderr, "server apply: %s\n",
                   mirrored.ToString().c_str());
      return false;
    }

    // Each repeat patches its own copy of the pre-batch propagator, so all
    // of them time the same refresh; the last copy carries on.
    const IncrementalPropagator before = prop;
    std::vector<double> inc_samples, full_samples, publish_samples;
    std::vector<double> speedups, publish_ratios;
    StatusOr<RefreshStats> stats = Status::Internal("no refresh ran");
    for (int rep = 0; rep < kRepeats; ++rep) {
      prop = before;
      Stopwatch inc_watch;
      stats = prop.Refresh(snap, delta);
      inc_samples.push_back(inc_watch.ElapsedMillis());
      if (!stats.ok() || !stats.value().incremental) {
        std::fprintf(stderr, "refresh did not take the incremental path\n");
        return false;
      }

      Stopwatch full_watch;
      Matrix oracle = prop.ComputeFull(snap);
      full_samples.push_back(full_watch.ElapsedMillis());
      if (!BitwiseEqual(*prop.hidden(), oracle)) {
        std::fprintf(stderr,
                     "incremental result diverged from cold oracle\n");
        return false;
      }
      // A fresh engine sits at generation 0, so every repeat publishes the
      // same swap onto this batch's snapshot.
      serve::InferenceEngine engine(&graph, serve::EngineOptions{});
      Stopwatch publish_watch;
      const Status published = server.PublishTo(&engine);
      publish_samples.push_back(publish_watch.ElapsedMillis());
      if (!published.ok()) {
        std::fprintf(stderr, "publish: %s\n", published.ToString().c_str());
        return false;
      }
      speedups.push_back(full_samples.back() / inc_samples.back());
      publish_ratios.push_back(publish_samples.back() / inc_samples.back());
    }
    if (server.version() != snap.version() ||
        !BitwiseEqual(*server.hidden(), *prop.hidden())) {
      std::fprintf(stderr, "stream server diverged from the bench\n");
      return false;
    }
    const double inc_ms = ahg::bench::Median(std::move(inc_samples));
    const double full_ms = ahg::bench::Median(std::move(full_samples));
    const double publish_ms = ahg::bench::Median(std::move(publish_samples));
    const double speedup = ahg::bench::Median(std::move(speedups));
    const double publish_ratio =
        ahg::bench::Median(std::move(publish_ratios));

    table.AddRow({label,
                  StrFormat("%.2f%%", stats.value().dirty_fraction * 100.0),
                  StrFormat("%d", static_cast<int>(seeds.size())),
                  StrFormat("%.2f", apply_ms), StrFormat("%.2f", inc_ms),
                  StrFormat("%.2f", full_ms), StrFormat("%.3f", publish_ms),
                  StrFormat("%.1fx", speedup),
                  StrFormat("%.2fx", publish_ratio)});
    if (target <= 0.05 && speedup < 5.0) {
      std::fprintf(stderr,
                   "FAIL: %s dirty speedup %.1fx below the 5x bound\n",
                   label.c_str(), speedup);
      return false;
    }
    if (target == 0.05 && publish_ratio > 1.0) {
      std::fprintf(stderr,
                   "FAIL: %s dirty publish costs %.2fx the incremental "
                   "refresh (bound 1x)\n",
                   label.c_str(), publish_ratio);
      return false;
    }
    return true;
  };
  for (double target : {0.01, 0.05, 0.20}) {
    ok = run_scenario(target, StrFormat("%.0f%%", target * 100.0)) && ok;
  }

  // Compaction-triggered re-reorder mid-stream: edge-add batches push the
  // adjacency overlay past the 25% compaction threshold, the fold is the
  // re-reorder point (mirroring stream_server.cc), the propagator's hidden
  // state is row-gathered into the new order (zero FLOPs), and the <= 5%
  // dirty incremental bound is re-asserted on the reordered snapshot.
  Rng edge_rng(31);
  bool compacted = false;
  for (int round = 0; round < 8 && !compacted; ++round) {
    std::vector<Mutation> adds;
    const int pairs = snap.num_nodes() / 8;
    adds.reserve(pairs);
    auto has_edge = [&snap](int u, int v) {
      const DeltaCsr::RowRef row =
          snap.raw_adjacency().Row(snap.ToInternal(u));
      const int vi = snap.ToInternal(v);
      for (int64_t e = 0; e < row.nnz; ++e) {
        if (row.cols[e] == vi) return true;
      }
      return false;
    };
    std::unordered_set<int64_t> in_batch;
    while (static_cast<int>(adds.size()) < pairs) {
      const int u = edge_rng.UniformInt(snap.num_nodes());
      int v = edge_rng.UniformInt(snap.num_nodes());
      if (v == u) v = (v + 1) % snap.num_nodes();
      const int64_t key = static_cast<int64_t>(std::min(u, v)) *
                              snap.num_nodes() +
                          std::max(u, v);
      if (!in_batch.insert(key).second || has_edge(u, v)) continue;
      adds.push_back(Mutation::AddEdge(u, v));
    }
    auto applied = snap.Apply(adds);
    if (!applied.ok()) {
      std::fprintf(stderr, "edge apply: %s\n",
                   applied.status().ToString().c_str());
      return 1;
    }
    compacted = applied.value().second.compacted;
    snap = std::move(applied.value().first);
    const Status mirrored = mirror(adds);
    if (!mirrored.ok()) {
      std::fprintf(stderr, "server edge apply: %s\n",
                   mirrored.ToString().c_str());
      return 1;
    }
    auto stats = prop.Refresh(snap, applied.value().second);
    if (!stats.ok()) {
      std::fprintf(stderr, "refresh after edge batch failed\n");
      return 1;
    }
  }
  if (!compacted) {
    std::fprintf(stderr, "compaction never fired; scenario invalid\n");
    return 1;
  }
  ReorderResult reordered =
      snap.Reordered(ReorderStrategy::kRcm, kReorderSeed);
  prop.ApplyReorder(reordered.remap, reordered.snapshot.version());
  snap = std::move(reordered.snapshot);
  if (!BitwiseEqual(*prop.hidden(), prop.ComputeFull(snap))) {
    std::fprintf(stderr, "re-reordered hidden state diverged from cold "
                         "oracle\n");
    return 1;
  }
  ok = run_scenario(0.05, "5%+reorder") && ok;
  table.Print();

  if (!ahg::bench::FlushObsOutputs(obs_flags)) return 1;
  if (!ok) return 1;
  std::printf("dyn_refresh: incremental >= 5x at <= 5%% dirty, publish <= "
              "incremental at 5%% dirty: PASS\n");
  return 0;
}

}  // namespace
}  // namespace ahg::dyn

int main(int argc, char** argv) { return ahg::dyn::Main(argc, argv); }
