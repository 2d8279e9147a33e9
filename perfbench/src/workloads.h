// The perfbench workloads and the helpers they share.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>

#include "graph/graph.h"
#include "harness.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;  // private directory for job stores and registries
};

// Thread budget: one kernel thread plus one batcher worker per part (at
// most two) stay within four cores, with the load generator (the main
// thread) beside them. A second kernel thread made no job or batch faster
// on a shared 4-core host, and moved the search median by 18% between runs
// (4% with one thread).
inline constexpr int kKernelThreads = 1;
inline constexpr int kBatcherThreads = 1;  // per shard or part

struct RunResult {
  Report report;
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;  // failed + shed + deadline-missed + rejected
};

RunResult RunSearch(const RunConfig& config);
// `workload` is "stream" or "partitioned".
RunResult RunServing(const RunConfig& config);

// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 11;

// Runs `setup` kSetupReps times and returns the median wall time in seconds.
// `teardown` runs before each repetition, untimed, and frees what the
// previous one built.
double MedianSetupSeconds(const std::function<void()>& setup,
                          const std::function<void()>& teardown);

// kernels.spmm_ms / gemm_ms / spmm_rows_ms at one workload's shapes: the
// kSymNorm SpMM over an n x `width` operand, the n x in_dim by
// in_dim x `width` GEMM, and SpmmRows over a seeded 5% row subset (median
// of several calls each).
void TimeKernels(const ahg::Graph& graph, int width, uint64_t seed,
                 Report* report);

// Reads a process-wide counter / histogram from the library's metrics
// registry (0 when it was never registered).
int64_t CounterValue(const char* name);
struct HistogramTotals {
  int64_t count = 0;
  double sum = 0.0;
};
HistogramTotals HistogramValue(const char* name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
