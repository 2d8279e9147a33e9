// Serving-path throughput bench: quantifies what the PropagationCache buys
// on a 10k-node SBM graph.
//
//   cold   first single-node query on a fresh engine (pays the one-time
//          propagation precompute)
//   warm   subsequent single-node queries (dense row gather + head MLP)
//   batch  cache-warm micro-batched serving through the RequestBatcher at
//          max_batch_size 1 / 8 / 64
//   naive  the no-cache baseline: every query re-runs the full-graph
//          eval forward and reads one row
//
// The bench asserts the ISSUE acceptance criterion in its counters:
// cache-warm batched qps must be >= 5x the naive per-query qps. Exits
// non-zero when the bound does not hold, so CI can gate on it.
//
// Usage: serve_throughput [--fast] [--trace-out FILE] [--metrics-out FILE]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "graph/synthetic.h"
#include "nn/linear.h"
#include "serve/inference_engine.h"
#include "serve/model_registry.h"
#include "serve/request_batcher.h"
#include "serve/serve_stats.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace ahg::serve {
namespace {

int Main(int argc, char** argv) {
  const bool fast = ahg::bench::FastMode(argc, argv);
  const ahg::bench::ObsFlags obs_flags =
      ahg::bench::ParseObsFlags(argc, argv);

  SyntheticConfig cfg;
  cfg.name = "serve-bench";
  cfg.num_nodes = fast ? 2000 : 10000;
  cfg.num_classes = 5;
  cfg.feature_dim = 32;
  cfg.avg_degree = 6.0;
  cfg.seed = 7;
  Graph graph = GenerateSbmGraph(cfg);

  // Publish one GCN generation through the registry so the bench exercises
  // the real deployment path (save -> manifest -> load -> serve).
  ModelConfig model_cfg;
  model_cfg.family = ModelFamily::kGcn;
  model_cfg.in_dim = graph.feature_dim();
  model_cfg.hidden_dim = 32;
  model_cfg.num_layers = 2;
  model_cfg.seed = 11;
  std::unique_ptr<GnnModel> zoo = BuildModel(model_cfg);
  Rng head_rng(model_cfg.seed ^ 0x5ca1ab1eULL);
  Linear head(zoo->params(), model_cfg.hidden_dim, graph.num_classes(),
              /*bias=*/true, &head_rng);

  const char* tmp = std::getenv("TMPDIR");
  const std::string dir =
      std::string(tmp ? tmp : "/tmp") + "/serve_throughput_registry";
  std::filesystem::remove_all(dir);
  if (!ModelRegistry::Publish(dir, 1, model_cfg, zoo->params()->Snapshot(),
                              graph.num_classes())
           .ok()) {
    std::fprintf(stderr, "publish failed\n");
    return 1;
  }
  ModelRegistry registry(dir);
  if (!registry.Refresh().ok() ||
      !registry.ValidateCompatibility(graph).ok()) {
    std::fprintf(stderr, "registry load failed\n");
    return 1;
  }
  std::shared_ptr<const ServableModel> model = registry.Active();

  const int warm_queries = fast ? 200 : 1000;
  const int naive_queries = fast ? 3 : 5;
  Rng node_rng(99);

  // Cold: first query on a fresh engine pays the propagation precompute.
  InferenceEngine cold_engine(&graph, EngineOptions{});
  Stopwatch cold_watch;
  if (auto r = cold_engine.PredictNodes(*model, {0}); !r.ok()) {
    std::fprintf(stderr, "cold query failed: %s\n",
                 r.status().ToString().c_str());
    return 1;
  }
  const double cold_ms = cold_watch.ElapsedMillis();

  // Warm: single-node queries against the populated cache.
  std::vector<double> warm_samples;
  warm_samples.reserve(warm_queries);
  for (int q = 0; q < warm_queries; ++q) {
    const std::vector<int> node = {
        static_cast<int>(node_rng.UniformInt(graph.num_nodes()))};
    Stopwatch watch;
    if (!cold_engine.PredictNodes(*model, node).ok()) return 1;
    warm_samples.push_back(watch.ElapsedMillis());
  }
  const double warm_ms = ahg::bench::Median(std::move(warm_samples));

  // Naive baseline: each query re-runs the full-graph eval forward.
  Stopwatch naive_watch;
  for (int q = 0; q < naive_queries; ++q) {
    Matrix probs = InferenceEngine::TrainingPathProbs(*model, graph);
    (void)probs(static_cast<int>(node_rng.UniformInt(graph.num_nodes())), 0);
  }
  const double naive_ms = naive_watch.ElapsedMillis() / naive_queries;
  const double naive_qps = 1e3 / naive_ms;

  // Cache-warm batched serving through the full stack at several batch
  // caps. Requests are pre-enqueued so the drain measures steady state.
  ahg::bench::TablePrinter table(
      {"path", "batch", "queries", "median_ms", "qps", "vs_naive"});
  table.AddRow({"cold_first_query", "1", "1",
                StrFormat("%.2f", cold_ms), StrFormat("%.1f", 1e3 / cold_ms),
                "-"});
  table.AddRow({"warm_single", "1", std::to_string(warm_queries),
                StrFormat("%.4f", warm_ms), StrFormat("%.1f", 1e3 / warm_ms),
                StrFormat("%.1fx", naive_ms / warm_ms)});
  table.AddRow({"naive_full_forward", "1", std::to_string(naive_queries),
                StrFormat("%.2f", naive_ms), StrFormat("%.1f", naive_qps),
                "1.0x"});

  double best_batched_qps = 0.0;
  for (int batch : {1, 8, 64}) {
    ServeStats stats;
    InferenceEngine engine(&graph, EngineOptions{}, &stats);
    if (!engine.Warm(*model).ok()) return 1;
    BatcherOptions options;
    options.max_batch_size = batch;
    options.queue_limit = 1 << 20;
    options.deadline_ms = 60000.0;
    options.num_threads = 2;
    RequestBatcher batcher(&engine, &registry, options, &stats);

    const int queries = fast ? 500 : 2000;
    std::vector<std::future<QueryResult>> futures;
    futures.reserve(queries);
    Stopwatch watch;
    for (int q = 0; q < queries; ++q) {
      futures.push_back(batcher.Enqueue(
          static_cast<int>(node_rng.UniformInt(graph.num_nodes()))));
    }
    batcher.Drain();
    const double seconds = watch.ElapsedSeconds();
    for (auto& f : futures) {
      if (!f.get().status.ok()) {
        std::fprintf(stderr, "batched query failed\n");
        return 1;
      }
    }
    const double qps = queries / seconds;
    best_batched_qps = std::max(best_batched_qps, qps);
    table.AddRow({"warm_batched", std::to_string(batch),
                  std::to_string(queries),
                  StrFormat("%.4f", 1e3 * seconds / queries),
                  StrFormat("%.1f", qps),
                  StrFormat("%.1fx", qps / naive_qps)});
  }
  table.Print();

  if (!ahg::bench::FlushObsOutputs(obs_flags)) return 1;

  const double speedup = best_batched_qps / naive_qps;
  std::printf("\ncache-warm batched vs naive full-forward: %.1fx "
              "(required >= 5.0x)\n",
              speedup);
  if (speedup < 5.0) {
    std::fprintf(stderr, "FAIL: speedup %.2fx below the 5x bound\n", speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ahg::serve

int main(int argc, char** argv) { return ahg::serve::Main(argc, argv); }
