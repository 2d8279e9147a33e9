// Measurement rules shared by every perfbench workload: percentiles that
// keep enough samples beyond them, open-loop lateness accounting, the metric
// catalog that BENCHMARK.json mirrors, and the per-layer call recorder the
// traced run fills.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- Percentiles ---------------------------------------------------------

// Nearest-rank percentile (q in (0, 100]) of `values`; +inf entries (failed
// requests) sort last. Empty input gives 0.
double Percentile(std::vector<double> values, double q);

double Median(std::vector<double> values);

// Samples strictly beyond the nearest-rank q-th percentile of n samples.
int64_t SamplesBeyond(int64_t n, double q);

// The highest of p99, p95, p90, p75 and p50 that leaves at least
// `min_beyond` samples beyond it; 50 when even the median does not (a
// handful of samples has no tail worth naming).
double TailLevel(int64_t n, int64_t min_beyond = 10);

// --- Open-loop generator lateness -----------------------------------------

// How far a single generator thread fell behind its schedule. A request
// sent late still counts its lateness in its latency (it is timed from its
// scheduled send). A generator whose lateness keeps growing, rather than
// recovering from stalls (or from the synchronous publishes it makes), no
// longer offers the rate the run claims, so the run is marked invalid.
struct Lateness {
  int64_t sends = 0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  bool valid = true;
};

// `late_ms[i]` = actual send time - scheduled send time of event i, in
// schedule order. Invalid when the median lateness over the last quarter of
// the schedule exceeds the first quarter's by more than `limit_ms`.
Lateness SummarizeLateness(const std::vector<double>& late_ms,
                           double limit_ms);

// Clears `*correct` (and says why on stderr) when `late` is invalid: a run
// whose generator fell behind did not offer the load it reports.
void RequireOnSchedule(const Lateness& late, bool* correct);

// --- Metric catalog ----------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  // "lower" | "higher"
};

// Mirrors BENCHMARK.json: end_to_end metrics (untraced runs) and per_layer
// metrics (traced runs), in file order.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

// Collects one run's metric values and renders the result line.
class Report {
 public:
  void Set(const std::string& name, double value);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;

  // Human-readable "name = value unit (better)" lines for `catalog`, then
  // the single-line JSON result. Returns false (and prints nothing) when a
  // catalog metric is missing or not finite.
  bool Print(const std::vector<MetricSpec>& catalog, bool correct,
             int64_t attempted, int64_t failed) const;

  // The JSON result line alone (exposed for the self-tests).
  std::string Json(const std::vector<MetricSpec>& catalog, bool correct,
                   int64_t attempted, int64_t failed) const;

 private:
  std::map<std::string, double> values_;
};

// --- Per-layer call recorder --------------------------------------------------

// A timed call into one layer's public function, recorded by the benchmark
// (never by the program under test).
struct LayerCall {
  const char* layer_fn;  // e.g. "dyn.refresh"
  Clock::time_point start;
  Clock::time_point end;
  bool main_thread = false;
};

class LayerRecorder {
 public:
  static LayerRecorder& Instance();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  // Calls made on the thread that calls this count toward CoveredMs.
  void MarkMainThread();

  void Record(const char* layer_fn, Clock::time_point start,
              Clock::time_point end);

  std::vector<LayerCall> Take();

 private:
  LayerRecorder() = default;
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<LayerCall> calls_;
};

// Sum and count of recorded calls to `layer_fn`.
struct CallTotals {
  int64_t calls = 0;
  double total_ms = 0.0;
  double mean_ms() const { return calls > 0 ? total_ms / calls : 0.0; }
};
CallTotals Totals(const std::vector<LayerCall>& calls, const char* layer_fn);

// Clears `*correct` (and names each one on stderr) when a layer function in
// `required` has no recorded call. Every workload lists the functions it
// must reach: a wrapper that stopped matching the library's symbol (its
// signature changed) records nothing, and its metric would read 0.
void RequireLayerCalls(const std::vector<LayerCall>& calls,
                       const std::vector<std::string>& required,
                       bool* correct);

// Milliseconds of [begin, end) covered by the union of main-thread calls.
double CoveredMs(const std::vector<LayerCall>& calls, Clock::time_point begin,
                 Clock::time_point end);

// --- Misc ---------------------------------------------------------------------

// FNV-1a 64 over the bytes of every regular file in `dir` (sorted by name,
// names included), as 16 hex digits. Empty string when the directory has
// no files.
std::string DirectoryDigest(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
