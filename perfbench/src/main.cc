// perfbench: one process, one workload, one result line.
//
//   perfbench --workload search|stream|partitioned --seed N
//             --seconds S --trace 0|1 --scratch DIR
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics. The last stdout line is the
// JSON result. The exit code is non-zero when a correctness gate fails or
// the arguments are bad. README.md lists the metrics and what moves them.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "kernels/autotune.h"
#include "kernels/dispatch.h"
#include "obs/metrics.h"
#include "tensor/matrix.h"
#include "tensor/sparse_matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

double MedianSetupSeconds(const std::function<void()>& setup,
                          const std::function<void()>& teardown) {
  std::vector<double> seconds;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    teardown();
    const Clock::time_point start = Clock::now();
    setup();
    seconds.push_back(MsBetween(start, Clock::now()) / 1e3);
  }
  return Median(std::move(seconds));
}

void TimeKernels(const ahg::Graph& graph, int width, uint64_t seed,
                 Report* report) {
  constexpr int kReps = 5;
  ahg::Rng rng(seed ^ 0x6b65726eULL);
  const ahg::SparseMatrix& adj = graph.Adjacency(ahg::AdjacencyKind::kSymNorm);
  const ahg::Matrix x = ahg::Matrix::Gaussian(graph.num_nodes(), width, 1.0, &rng);
  const ahg::Matrix w =
      ahg::Matrix::Gaussian(graph.feature_dim(), width, 0.1, &rng);
  std::vector<int> rows;
  for (int r = 0; r < graph.num_nodes(); ++r) {
    if (rng.Uniform() < 0.05) rows.push_back(r);
  }
  auto median_ms = [](const std::function<void()>& call) {
    std::vector<double> ms;
    for (int i = 0; i < kReps; ++i) {
      const Clock::time_point start = Clock::now();
      call();
      ms.push_back(MsBetween(start, Clock::now()));
    }
    return Median(std::move(ms));
  };
  report->Set("kernels.spmm_ms", median_ms([&] { (void)adj.Spmm(x); }));
  report->Set("kernels.gemm_ms",
              median_ms([&] { (void)ahg::MatMul(graph.features(), w); }));
  report->Set("kernels.spmm_rows_ms",
              median_ms([&] { (void)adj.SpmmRows(rows, x); }));
}

int64_t CounterValue(const char* name) {
  return ahg::obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

HistogramTotals HistogramValue(const char* name) {
  const ahg::obs::Histogram* h =
      ahg::obs::MetricsRegistry::Global().GetHistogram(
          name, ahg::obs::DefaultLatencyBucketsMs());
  return {h->TotalCount(), h->Sum()};
}

namespace {

// Every per-layer metric a workload does not exercise reads 0.
void ZeroUnsetLayerMetrics(Report* report) {
  for (const MetricSpec& m : PerLayerMetrics()) {
    if (!report->Has(m.name)) report->Set(m.name, 0.0);
  }
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "search|stream|partitioned --seed N --seconds S "
               "--trace 0|1 --scratch DIR\n",
               why);
  return 2;
}

// The run environment: results from different tiers, hosts or thread
// settings are not comparable, so every run states them.
void PrintEnvironment(const RunConfig& config) {
  const char* autotune = std::getenv("AHG_AUTOTUNE");
  std::printf(
      "env: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"kernel_tier\": \"%s\", \"nproc\": %u, "
      "\"kernel_threads\": %d, \"batcher_threads_per_shard\": %d, "
      "\"autotune\": \"%s\", \"pooling\": false, \"fusion\": false, "
      "\"reorder\": \"%s\"}\n",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0,
      ahg::kernels::TierName(ahg::kernels::ActiveTier()),
      std::thread::hardware_concurrency(), kKernelThreads,
      config.workload == "search" ? 0 : kBatcherThreads,
      ahg::kernels::AutotuneEnabled() ? "on" : "off",
      config.workload == "stream" ? "rcm (re-reorder at compaction)" : "none");
  if (autotune != nullptr) std::printf("env: AHG_AUTOTUNE=%s\n", autotune);
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--scratch") {
      config.scratch = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const std::vector<std::string> known = {"search", "stream", "partitioned"};
  if (std::find(known.begin(), known.end(), config.workload) == known.end()) {
    return Usage("unknown or missing --workload");
  }
  if (!have_seed || config.seconds <= 0.0 || config.scratch.empty()) {
    return Usage("--seed, a positive --seconds and --scratch are required");
  }
  std::error_code ec;
  std::filesystem::remove_all(config.scratch, ec);
  if (!std::filesystem::create_directories(config.scratch, ec)) {
    return Usage("cannot create the --scratch directory");
  }

  ahg::SetNumThreads(kKernelThreads);
  LayerRecorder::Instance().MarkMainThread();
  PrintEnvironment(config);

  RunResult result = config.workload == "search" ? RunSearch(config)
                                                 : RunServing(config);
  std::filesystem::remove_all(config.scratch, ec);

  std::printf("result: correct=%s attempted=%lld failed=%lld fail_frac=%.6f "
              "(fraction, lower is better)\n",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              result.attempted > 0
                  ? static_cast<double>(result.failed) / result.attempted
                  : 0.0);
  if (config.trace) ZeroUnsetLayerMetrics(&result.report);
  const bool printed = result.report.Print(
      config.trace ? PerLayerMetrics() : EndToEndMetrics(), result.correct,
      std::max<int64_t>(result.attempted, 1), result.failed);
  return printed && result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
