#include "harness.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <thread>
#include <utility>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<int64_t>(values.size());
  int64_t rank = static_cast<int64_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<int64_t>(rank, 1, n);
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

int64_t SamplesBeyond(int64_t n, double q) {
  if (n <= 0) return 0;
  const int64_t rank =
      std::clamp<int64_t>(static_cast<int64_t>(std::ceil(q / 100.0 * n)), 1, n);
  return n - rank;
}

double TailLevel(int64_t n, int64_t min_beyond) {
  for (double q : {99.0, 95.0, 90.0, 75.0}) {
    if (SamplesBeyond(n, q) >= min_beyond) return q;
  }
  return 50.0;
}

Lateness SummarizeLateness(const std::vector<double>& late_ms,
                           double limit_ms) {
  Lateness out;
  out.sends = static_cast<int64_t>(late_ms.size());
  if (late_ms.empty()) return out;
  out.p99_ms = Percentile(late_ms, 99.0);
  out.max_ms = *std::max_element(late_ms.begin(), late_ms.end());
  const size_t quarter = late_ms.size() / 4 + 1;
  const std::vector<double> first(late_ms.begin(), late_ms.begin() + quarter);
  const std::vector<double> last(late_ms.end() - quarter, late_ms.end());
  out.valid = Median(last) <= Median(first) + limit_ms;
  return out;
}

void RequireOnSchedule(const Lateness& late, bool* correct) {
  if (late.valid) return;
  std::fprintf(stderr,
               "perfbench: the load generator fell behind its schedule "
               "(lateness p99 %.4f ms, max %.4f ms); the run is invalid\n",
               late.p99_ms, late.max_ms);
  *correct = false;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s", "lower"},
      {"p50_ms", "ms", "lower"},
      {"tail_ms", "ms", "lower"},
      {"peak_mb", "MB", "lower"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"core.proxy_eval_s", "s", "lower"},
      {"core.search_gradient_s", "s", "lower"},
      {"core.final_train_s", "s", "lower"},
      {"jobs.checkpoint_ms", "ms", "lower"},
      {"jobs.checkpoints", "count", "lower"},
      {"jobs.publish_ms", "ms", "lower"},
      {"tasks.epoch_ms", "ms", "lower"},
      {"kernels.spmm_ms", "ms", "lower"},
      {"kernels.gemm_ms", "ms", "lower"},
      {"kernels.spmm_rows_ms", "ms", "lower"},
      {"tensor.allocs", "count", "lower"},
      {"tensor.pool_hit_rate", "fraction", "higher"},
      {"fabric.route_us", "us", "lower"},
      {"fabric.shed", "count", "lower"},
      {"serve.queue_wait_ms", "ms", "lower"},
      {"serve.batch_size_mean", "count", "higher"},
      {"serve.predict_us", "us", "lower"},
      {"serve.cache_hit_rate", "fraction", "higher"},
      {"serve.warm_ms", "ms", "lower"},
      {"dyn.apply_ms", "ms", "lower"},
      {"dyn.refresh_ms", "ms", "lower"},
      {"dyn.publish_ms", "ms", "lower"},
      {"dyn.rows_refreshed", "count", "lower"},
      {"dyn.full_share", "fraction", "lower"},
      {"graph.reorder_ms", "ms", "lower"},
      {"partition.create_s", "s", "lower"},
      {"partition.warm_ms", "ms", "lower"},
      {"partition.apply_delta_ms", "ms", "lower"},
      {"partition.halo_rows", "count", "lower"},
      {"partition.predict_us", "us", "lower"},
      {"partition.part_resident_mb", "MB", "lower"},
      {"loadgen.late_p99_ms", "ms", "lower"},
      {"trace.unattributed_share", "fraction", "lower"},
      {"trace.overhead_ms", "ms", "lower"},
  };
  return kMetrics;
}

void Report::Set(const std::string& name, double value) {
  values_[name] = value;
}

bool Report::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

double Report::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

std::string Report::Json(const std::vector<MetricSpec>& catalog, bool correct,
                         int64_t attempted, int64_t failed) const {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < catalog.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", Get(catalog[i].name));
    json += (i ? ", \"" : "\"") + std::string(catalog[i].name) +
            "\": {\"value\": " + value + ", \"unit\": \"" + catalog[i].unit +
            "\"}";
  }
  json += "}}";
  return json;
}

bool Report::Print(const std::vector<MetricSpec>& catalog, bool correct,
                   int64_t attempted, int64_t failed) const {
  for (const MetricSpec& m : catalog) {
    if (!Has(m.name) || !std::isfinite(Get(m.name))) {
      std::fprintf(stderr, "perfbench: metric %s missing or not finite\n",
                   m.name);
      return false;
    }
  }
  for (const MetricSpec& m : catalog) {
    std::printf("  %-28s %14.6g %-8s (%s is better)\n", m.name, Get(m.name),
                m.unit, m.better);
  }
  std::printf("%s\n", Json(catalog, correct, attempted, failed).c_str());
  std::fflush(stdout);
  return true;
}

LayerRecorder& LayerRecorder::Instance() {
  static LayerRecorder* recorder = new LayerRecorder();
  return *recorder;
}

namespace {
std::thread::id g_main_thread;
}  // namespace

void LayerRecorder::MarkMainThread() {
  std::lock_guard<std::mutex> lock(mu_);
  g_main_thread = std::this_thread::get_id();
}

void LayerRecorder::Record(const char* layer_fn, Clock::time_point start,
                           Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mu_);
  calls_.push_back(
      {layer_fn, start, end, std::this_thread::get_id() == g_main_thread});
}

std::vector<LayerCall> LayerRecorder::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(calls_, {});
}

CallTotals Totals(const std::vector<LayerCall>& calls, const char* layer_fn) {
  CallTotals totals;
  const std::string name = layer_fn;
  for (const LayerCall& call : calls) {
    if (name != call.layer_fn) continue;
    ++totals.calls;
    totals.total_ms += MsBetween(call.start, call.end);
  }
  return totals;
}

void RequireLayerCalls(const std::vector<LayerCall>& calls,
                       const std::vector<std::string>& required,
                       bool* correct) {
  for (const std::string& layer_fn : required) {
    if (Totals(calls, layer_fn.c_str()).calls > 0) continue;
    std::fprintf(stderr,
                 "perfbench: no call to %s was recorded; its wrapper in "
                 "layer_wraps.cc no longer matches the library\n",
                 layer_fn.c_str());
    *correct = false;
  }
}

double CoveredMs(const std::vector<LayerCall>& calls, Clock::time_point begin,
                 Clock::time_point end) {
  std::vector<std::pair<Clock::time_point, Clock::time_point>> spans;
  for (const LayerCall& call : calls) {
    if (!call.main_thread) continue;
    const auto s = std::max(call.start, begin);
    const auto e = std::min(call.end, end);
    if (s < e) spans.emplace_back(s, e);
  }
  std::sort(spans.begin(), spans.end());
  double covered = 0.0;
  Clock::time_point reach = begin;
  for (const auto& [s, e] : spans) {
    const auto from = std::max(s, reach);
    if (e > from) {
      covered += MsBetween(from, e);
      reach = e;
    }
  }
  return covered;
}

std::string DirectoryDigest(const std::string& dir) {
  std::vector<std::string> names;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      struct stat st;
      if (name[0] != '.' && ::stat((dir + "/" + name).c_str(), &st) == 0 &&
          S_ISREG(st.st_mode)) {
        names.push_back(name);
      }
    }
    ::closedir(d);
  }
  if (names.empty()) return "";
  std::sort(names.begin(), names.end());
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const std::string& bytes) {
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
  };
  for (const std::string& name : names) {
    std::ifstream in(dir + "/" + name, std::ios::binary);
    mix(name);
    mix(std::string(std::istreambuf_iterator<char>(in), {}));
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

}  // namespace perfbench
