// Command-line runner for AutoGraph-format datasets — the shape of the
// actual competition submission: point it at a dataset directory and it
// trains AutoHEnsGNN under the directory's time budget and writes
// predictions.
//
// Usage:
//   autograph_cli --data DIR [--algo adaptive|gradient] [--pool N] [--k K]
//                 [--seed S] [--out FILE] [--nas] [--threads T]
//                 [--reorder none|rcm|hub|shuffle]
//                 [--trace-out FILE] [--metrics-out FILE]
//
// --reorder applies a locality pass (graph/reorder.h) before training: the
// graph is relabeled internally, the train/val split is projected through
// the permutation, and prediction ids are translated back so the written
// file always refers to the original node ids. graph.* gauges capture the
// before/after layout quality.
//
// --trace-out enables tracing and writes a chrome://tracing JSON timeline
// of the whole run (pipeline stages, training epochs, SpMM/GEMM kernels);
// --metrics-out writes the process metrics registry as TSV at exit.
//
// --threads T pins the kernel thread count (SpMM/GEMM row-parallelism);
// when omitted the hardware default is used. Results are bitwise identical
// for every T (fixed row partitioning, no atomic reductions).
//
// With --nas, a random-architecture-search pass (the paper's future-work
// extension) injects two proxy-ranked novel configurations into the
// candidate pool before selection. When --data is omitted a demo dataset is
// generated under /tmp first.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/autohens.h"
#include "core/nas_random.h"
#include "graph/reorder.h"
#include "graph/split.h"
#include "graph/statistics.h"
#include "graph/synthetic.h"
#include "io/autograph_format.h"
#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

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

}  // namespace

int main(int argc, char** argv) {
  using namespace ahg;
  const std::string trace_out = FlagValue(argc, argv, "--trace-out", "");
  const std::string metrics_out = FlagValue(argc, argv, "--metrics-out", "");
  if (!trace_out.empty()) obs::TraceRecorder::Instance().Enable();
  const int threads = std::atoi(FlagValue(argc, argv, "--threads", "0"));
  if (threads > 0) SetNumThreads(threads);
  std::printf("kernel threads: %d\n", GetNumThreads());
  std::string data_dir = FlagValue(argc, argv, "--data", "");
  if (data_dir.empty()) {
    // Demo mode: publish a synthetic dataset first.
    data_dir = "/tmp/autograph_cli_demo";
    Graph truth = MakePresetGraph("A", /*seed=*/7);
    Rng rng(1);
    DataSplit official = RandomSplit(truth, 0.4, 0.0, &rng);
    Status s = WriteAutographDataset(data_dir, truth, official.train,
                                     official.test, 90.0);
    if (!s.ok()) {
      std::fprintf(stderr, "demo dataset write failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    std::printf("no --data given; demo dataset written to %s\n",
                data_dir.c_str());
  }

  auto dataset = ReadAutographDataset(data_dir);
  if (!dataset.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", data_dir.c_str(),
                 dataset.status().ToString().c_str());
    return 1;
  }
  const AutographDataset& ds = dataset.value();
  std::printf("dataset: %d nodes, %lld edges, %d classes, budget %.0fs\n",
              ds.graph.num_nodes(),
              static_cast<long long>(ds.graph.num_edges()),
              ds.graph.num_classes(), ds.time_budget_seconds);

  AutoHEnsConfig config;
  config.pool_size = std::atoi(FlagValue(argc, argv, "--pool", "3"));
  config.k = std::atoi(FlagValue(argc, argv, "--k", "3"));
  config.algo = std::strcmp(FlagValue(argc, argv, "--algo", "adaptive"),
                            "gradient") == 0
                    ? SearchAlgo::kGradient
                    : SearchAlgo::kAdaptive;
  config.seed = std::strtoull(FlagValue(argc, argv, "--seed", "42"), nullptr,
                              10);
  config.proxy.dataset_ratio = 0.3;
  config.proxy.bagging = 2;
  config.proxy.train.max_epochs = 25;
  config.train.max_epochs = 50;
  config.train.patience = 10;
  config.train.num_threads = threads;  // 0 = keep the global setting
  config.train.learning_rate = 2e-2;
  config.bagging_splits = 2;
  config.time_budget_seconds = ds.time_budget_seconds;

  Rng rng(config.seed);
  DataSplit split = RandomSplit(ds.graph, 0.75, 0.25, &rng);
  split.test.clear();  // unlabeled in the competition setting

  // Optional locality pass. The split above and the prediction ids below
  // stay external; translation happens exactly once at each boundary.
  StatusOr<ReorderStrategy> strategy_or =
      ParseReorderStrategy(FlagValue(argc, argv, "--reorder", "none"));
  if (!strategy_or.ok()) {
    std::fprintf(stderr, "%s\n", strategy_or.status().ToString().c_str());
    return 1;
  }
  Graph graph = ds.graph;
  if (strategy_or.value() != ReorderStrategy::kNone) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    const GraphStatistics before = ComputeStatistics(ds.graph);
    PublishGraphGauges(before, &reg);
    graph = ReorderGraph(ds.graph, strategy_or.value(), config.seed);
    const GraphStatistics after = ComputeStatistics(graph);
    PublishGraphGauges(after, &reg, "reordered_");
    std::printf("reorder=%s: bandwidth %lld -> %lld, mean column gap "
                "%.1f -> %.1f\n",
                ReorderStrategyName(strategy_or.value()),
                static_cast<long long>(before.bandwidth),
                static_cast<long long>(after.bandwidth),
                before.mean_column_gap, after.mean_column_gap);
    split = ProjectSplit(graph.permutation(), split);
  }

  std::vector<CandidateSpec> candidates = CompactCandidatePool();
  if (HasFlag(argc, argv, "--nas")) {
    NasSearchConfig nas;
    nas.num_samples = 8;
    nas.top_to_keep = 2;
    nas.proxy = config.proxy;
    nas.seed = config.seed ^ 0x7a5ULL;
    std::vector<CandidateSpec> novel =
        RandomArchitectureSearch(ds.graph, candidates, nas);
    std::printf("NAS injected %zu novel configs into the pool\n",
                novel.size());
    candidates.insert(candidates.end(), novel.begin(), novel.end());
  }

  auto result_or = RunAutoHEnsGnnChecked(graph, split, candidates, config);
  if (!result_or.ok()) {
    std::fprintf(stderr, "autohens failed: %s\n",
                 result_or.status().ToString().c_str());
    return 1;
  }
  const AutoHEnsResult& result = result_or.value();
  std::printf("pool:");
  for (size_t j = 0; j < result.pool_names.size(); ++j) {
    std::printf(" %s(beta=%.2f)", result.pool_names[j].c_str(),
                result.beta[j]);
  }
  std::printf("\nvalidation accuracy %.3f; stages: sel %.1fs search %.1fs "
              "retrain %.1fs (%d bagging rounds)\n",
              result.val_accuracy, result.selection_seconds,
              result.search_seconds, result.retrain_seconds,
              result.bagging_rounds_run);

  const std::string out_path =
      FlagValue(argc, argv, "--out", (data_dir + "/predictions.tsv").c_str());
  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  for (int node : ds.test_nodes) {
    out << node << "\t"
        << result.probs.ArgMaxRow(ToInternalId(graph.permutation(), node))
        << "\n";
  }
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "short write to %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %zu predictions to %s\n", ds.test_nodes.size(),
              out_path.c_str());

  if (!trace_out.empty()) {
    Status s = obs::TraceRecorder::Instance().WriteChromeTrace(trace_out);
    if (!s.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote trace to %s (load via chrome://tracing)\n",
                trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    Status s = obs::MetricsRegistry::Global().WriteTsv(metrics_out);
    if (!s.ok()) {
      std::fprintf(stderr, "metrics write failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    std::printf("wrote metrics to %s\n", metrics_out.c_str());
  }
  return 0;
}
