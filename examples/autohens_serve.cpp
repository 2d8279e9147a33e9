// Inference-serving demo: the deployment shape of this repo. Bootstraps a
// versioned model registry (training two GCN generations on a synthetic
// SBM graph when the registry is empty), then replays a synthetic query
// trace through the batched serving stack — ModelRegistry (hot-swap under
// an RW lock) -> RequestBatcher (micro-batches, deadlines, admission
// control) -> InferenceEngine (frozen forward + PropagationCache) — and
// prints the ServeStats table. Halfway through the trace the registry is
// Refresh()ed so the second half is served by the newest version, the
// production hot-swap motion.
//
// Usage:
//   autohens_serve [--registry DIR] [--nodes N] [--queries Q] [--batch B]
//                  [--serve-threads T] [--deadline-ms D] [--queue-limit L]
//                  [--max-queue-delay-ms M] [--seed S]
//                  [--reorder none|rcm|shuffle]
//                  [--assert-no-violations] [--trace-out FILE]
//                  [--metrics-out FILE] [--report-interval-s R]
//
// --reorder relabels the serving graph with a locality pass before the
// engine is built; query node ids stay external (the engine translates at
// its boundary) and graph.* gauges record the layout before/after.
//
// --assert-no-violations exits non-zero when any request misses its
// deadline or is rejected — the CI smoke contract.
//
// Observability: --trace-out enables tracing and writes a chrome://tracing
// JSON timeline (queue waits, batch execution, cache hits/misses, SpMM);
// --metrics-out dumps the process metrics registry as TSV at exit;
// --report-interval-s R prints a one-line metrics summary every R seconds
// while the trace replays (0 disables; default 1).
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "graph/reorder.h"
#include "graph/split.h"
#include "graph/statistics.h"
#include "graph/synthetic.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "autodiff/ops.h"
#include "serve/inference_engine.h"
#include "serve/model_registry.h"
#include "serve/propagation_cache.h"
#include "obs/metrics.h"
#include "obs/reporter.h"
#include "obs/trace.h"
#include "serve/request_batcher.h"
#include "serve/serve_stats.h"
#include "tensor/alloc_tracker.h"
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

// Trains a GCN + classifier head for a few epochs and returns the weight
// snapshot in ServableModel layout (zoo weights, head W, head b).
std::vector<ahg::Matrix> TrainGeneration(const ahg::Graph& graph,
                                         const ahg::DataSplit& split,
                                         ahg::ModelConfig* config,
                                         uint64_t seed) {
  using namespace ahg;
  config->family = ModelFamily::kGcn;
  config->in_dim = graph.feature_dim();
  config->hidden_dim = 32;
  config->num_layers = 2;
  config->seed = seed;
  std::unique_ptr<GnnModel> model = BuildModel(*config);
  Rng head_rng(config->seed ^ 0x5ca1ab1eULL);
  Linear head(model->params(), config->hidden_dim, graph.num_classes(),
              /*bias=*/true, &head_rng);
  Adam optimizer(model->params()->params(), AdamConfig{});
  Rng dropout_rng(seed ^ 0x2badULL);
  Var features = MakeConstant(graph.features());
  for (int epoch = 0; epoch < 20; ++epoch) {
    model->params()->ZeroGrad();
    GnnContext ctx{&graph, /*training=*/true, &dropout_rng};
    Var logits = head.Apply(model->LayerOutputs(ctx, features).back());
    Backward(MaskedCrossEntropy(logits, graph.labels(), split.train));
    optimizer.Step();
  }
  return model->params()->Snapshot();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ahg;
  using namespace ahg::serve;

  const std::string registry_dir =
      FlagValue(argc, argv, "--registry", "/tmp/autohens_serve_registry");
  const int num_nodes = std::atoi(FlagValue(argc, argv, "--nodes", "4000"));
  const int num_queries =
      std::atoi(FlagValue(argc, argv, "--queries", "2000"));
  const int batch = std::atoi(FlagValue(argc, argv, "--batch", "32"));
  const int serve_threads =
      std::atoi(FlagValue(argc, argv, "--serve-threads", "2"));
  const double deadline_ms =
      std::atof(FlagValue(argc, argv, "--deadline-ms", "30000"));
  const int queue_limit =
      std::atoi(FlagValue(argc, argv, "--queue-limit", "100000"));
  const uint64_t seed =
      static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "--seed", "17")));
  const bool assert_no_violations =
      HasFlag(argc, argv, "--assert-no-violations");
  const double max_queue_delay_ms =
      std::atof(FlagValue(argc, argv, "--max-queue-delay-ms", "10"));
  const std::string trace_out = FlagValue(argc, argv, "--trace-out", "");
  const std::string metrics_out = FlagValue(argc, argv, "--metrics-out", "");
  const double report_interval_s =
      std::atof(FlagValue(argc, argv, "--report-interval-s", "1"));
  if (!trace_out.empty()) obs::TraceRecorder::Instance().Enable();

  // The serving graph (stands in for the production graph snapshot).
  SyntheticConfig graph_cfg;
  graph_cfg.name = "serving";
  graph_cfg.num_nodes = num_nodes;
  graph_cfg.num_classes = 5;
  graph_cfg.feature_dim = 32;
  graph_cfg.avg_degree = 6.0;
  graph_cfg.seed = seed;
  Graph graph = GenerateSbmGraph(graph_cfg);
  std::printf("serving graph: %d nodes, %lld edges, %d classes\n",
              graph.num_nodes(), static_cast<long long>(graph.num_edges()),
              graph.num_classes());

  // Optional locality pass: everything downstream (training, engine, trace
  // replay) runs on the reordered graph; query ids remain external and the
  // engine translates them at its boundary.
  StatusOr<ReorderStrategy> strategy_or =
      ParseReorderStrategy(FlagValue(argc, argv, "--reorder", "none"));
  if (!strategy_or.ok()) {
    std::fprintf(stderr, "%s\n", strategy_or.status().ToString().c_str());
    return 1;
  }
  if (strategy_or.value() != ReorderStrategy::kNone) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    const GraphStatistics before = ComputeStatistics(graph);
    PublishGraphGauges(before, &reg);
    graph = ReorderGraph(graph, strategy_or.value(), seed);
    const GraphStatistics after = ComputeStatistics(graph);
    PublishGraphGauges(after, &reg, "reordered_");
    std::printf("reorder=%s: bandwidth %lld -> %lld, mean column gap "
                "%.1f -> %.1f\n",
                ReorderStrategyName(strategy_or.value()),
                static_cast<long long>(before.bandwidth),
                static_cast<long long>(after.bandwidth),
                before.mean_column_gap, after.mean_column_gap);
  }

  Rng split_rng(seed);
  DataSplit split = RandomSplit(graph, 0.6, 0.2, &split_rng);

  // Bootstrap the registry with one generation when it has no manifest; the
  // second generation is trained and published mid-trace so every run
  // exercises a real hot swap.
  {
    ModelRegistry probe(registry_dir);
    Status s = probe.Refresh();
    if (s.code() == Status::Code::kNotFound) {
      std::printf("bootstrapping registry in %s\n", registry_dir.c_str());
      ModelConfig config;
      Stopwatch train_watch;
      std::vector<Matrix> params =
          TrainGeneration(graph, split, &config, seed + 1);
      Status pub = ModelRegistry::Publish(registry_dir, 1, config, params,
                                          graph.num_classes());
      if (!pub.ok()) {
        std::fprintf(stderr, "publish failed: %s\n", pub.ToString().c_str());
        return 1;
      }
      std::printf("published v1 (trained %.1fs)\n",
                  train_watch.ElapsedSeconds());
    } else if (!s.ok()) {
      std::fprintf(stderr, "registry refresh failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
  }

  ModelRegistry registry(registry_dir);
  if (Status s = registry.Refresh(); !s.ok()) {
    std::fprintf(stderr, "registry refresh failed: %s\n", s.ToString().c_str());
    return 1;
  }
  if (Status s = registry.ValidateCompatibility(graph); !s.ok()) {
    std::fprintf(stderr, "registry/graph mismatch: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  std::printf("registry: %zu versions, active v%d\n",
              registry.Versions().size(), registry.active_version());

  ServeStats stats;
  InferenceEngine engine(&graph, EngineOptions{}, &stats);
  if (Status s = engine.Warm(*registry.Active()); !s.ok()) {
    std::fprintf(stderr, "cache warm failed: %s\n", s.ToString().c_str());
    return 1;
  }

  BatcherOptions options;
  options.max_batch_size = batch;
  options.queue_limit = queue_limit;
  options.deadline_ms = deadline_ms;
  options.num_threads = serve_threads;
  options.max_queue_delay_ms = max_queue_delay_ms;
  RequestBatcher batcher(&engine, &registry, options, &stats);

  // Periodic one-line health report while the trace replays, driven off the
  // shared stats block; stops (dtor) before the final table prints.
  auto reporter = std::make_unique<obs::PeriodicReporter>(
      report_interval_s, [&stats] {
        ServeStatsSnapshot s = stats.Snapshot();
        std::printf("[report] completed=%lld qps=%.0f p50=%.2fms p99=%.2fms "
                    "cache_hit=%lld/%lld batches=%lld\n",
                    static_cast<long long>(s.completed), s.qps,
                    s.p50_latency_ms, s.p99_latency_ms,
                    static_cast<long long>(s.cache_hits),
                    static_cast<long long>(s.cache_hits + s.cache_misses),
                    static_cast<long long>(s.batches));
      });

  // Synthetic query trace: uniform-random nodes; halfway through, a new
  // generation is published and hot-swapped in while serving continues.
  Rng trace_rng(seed ^ 0xfeedULL);
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(num_queries);
  Stopwatch replay;
  for (int q = 0; q < num_queries; ++q) {
    if (q == num_queries / 2) {
      const int next_version = registry.active_version() + 1;
      ModelConfig config;
      std::vector<Matrix> params =
          TrainGeneration(graph, split, &config, seed + next_version);
      if (Status s = ModelRegistry::Publish(registry_dir, next_version,
                                            config, params,
                                            graph.num_classes());
          !s.ok()) {
        std::fprintf(stderr, "mid-trace publish failed: %s\n",
                     s.ToString().c_str());
        return 1;
      }
      batcher.Drain();  // let in-flight batches finish on the old version
      if (Status s = registry.Refresh(); !s.ok()) {
        std::fprintf(stderr, "mid-trace refresh failed: %s\n",
                     s.ToString().c_str());
        return 1;
      }
      std::printf("hot-swapped to v%d at query %d\n",
                  registry.active_version(), q);
    }
    futures.push_back(
        batcher.Enqueue(static_cast<int>(trace_rng.UniformInt(num_nodes))));
  }
  batcher.Drain();
  reporter.reset();  // stop reporting before the summary prints
  const double replay_seconds = replay.ElapsedSeconds();

  int64_t answered = 0;
  for (auto& future : futures) {
    if (future.get().status.ok()) ++answered;
  }
  std::printf("replayed %d queries in %.3fs (%lld answered)\n\n", num_queries,
              replay_seconds, static_cast<long long>(answered));

  ServeStatsSnapshot snap = stats.Snapshot();
  std::printf("%s", FormatStatsTable(snap).c_str());
  std::printf("  alloc_tracker_bytes   %lld (peak %lld)\n",
              static_cast<long long>(AllocTracker::CurrentBytes()),
              static_cast<long long>(AllocTracker::PeakBytes()));
  std::printf("  cache_entries         %lld\n",
              static_cast<long long>(engine.cache().num_entries()));

  if (!trace_out.empty()) {
    if (Status s = obs::TraceRecorder::Instance().WriteChromeTrace(trace_out);
        !s.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("  trace                 %s\n", trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    if (Status s = obs::MetricsRegistry::Global().WriteTsv(metrics_out);
        !s.ok()) {
      std::fprintf(stderr, "metrics write failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    std::printf("  metrics               %s\n", metrics_out.c_str());
  }

  if (assert_no_violations &&
      (snap.deadline_violations > 0 || snap.rejected > 0 ||
       snap.failed > 0)) {
    std::fprintf(stderr,
                 "FAIL: %lld deadline violations, %lld rejected, %lld "
                 "failed\n",
                 static_cast<long long>(snap.deadline_violations),
                 static_cast<long long>(snap.rejected),
                 static_cast<long long>(snap.failed));
    return 1;
  }
  return 0;
}
