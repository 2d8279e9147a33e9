// Proxy evaluation for model selection (Section III-B): candidates are
// ranked by training a *proxy model* (reduced hidden size, M_proxy) on a
// *proxy dataset* (sampled subgraph, D_proxy) with *proxy bagging* (B_proxy
// resplits). Accurate evaluation is the same procedure at ratio 1.0 / full
// bagging, so Figure 3's Kendall-vs-speedup sweeps reuse this API.
#ifndef AUTOHENS_CORE_PROXY_EVAL_H_
#define AUTOHENS_CORE_PROXY_EVAL_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "models/model_zoo.h"
#include "tasks/train_node.h"
#include "util/cancel.h"

namespace ahg {

struct CandidateScore {
  std::string name;
  ModelConfig config;           // with the proxy hidden size applied
  ModelConfig original_config;  // as supplied in the pool
  double mean_val_accuracy = 0.0;
  double stddev = 0.0;
  double seconds = 0.0;  // summed training time for this candidate
};

struct ProxyConfig {
  double dataset_ratio = 0.3;  // D_proxy: subgraph node fraction
  int bagging = 6;             // B_proxy: resplit count
  double model_ratio = 0.5;    // M_proxy: hidden-size multiplier
  double train_fraction = 0.6;
  double val_fraction = 0.2;
  // Candidate-level parallelism (one worker per proxy model). Kernel-level
  // threads inside each candidate come from train.num_threads / the global
  // SetNumThreads() setting and automatically run inline when candidates
  // already execute in parallel (nested regions never spawn).
  int num_threads = 1;
  TrainConfig train;
  // Cooperative cancellation, polled before each candidate and (through
  // TrainConfig) at epoch boundaries inside each proxy training. Cancelled
  // candidates are left unscored and `interrupted` is set on the result.
  const CancelToken* cancel = nullptr;
  // Called as each candidate finishes, from the evaluating worker thread
  // (concurrent when num_threads > 1) — the job layer persists completed
  // scores here. Never called for cancelled/precomputed candidates.
  std::function<void(int index, const CandidateScore& score)>
      on_candidate_done;
  // Resume support: scores for candidates already evaluated by an earlier
  // (interrupted) run, keyed by pool index. These candidates are not
  // retrained; their stored scores enter the ranking unchanged, so a
  // resumed evaluation ranks identically to an uninterrupted one.
  std::map<int, CandidateScore> precomputed;
};

struct ProxyEvalResult {
  std::vector<CandidateScore> ranked;  // descending mean validation accuracy
  double total_seconds = 0.0;
  // True when cancellation stopped the evaluation early; `ranked` then holds
  // only the candidates that finished (completed before the cancel).
  bool interrupted = false;
};

ProxyEvalResult ProxyEvaluate(const std::vector<CandidateSpec>& pool,
                              const Graph& graph, const ProxyConfig& config,
                              uint64_t seed);

// Top-n specs from a ranking, with the original (non-proxy) hidden size.
std::vector<CandidateSpec> SelectTopCandidates(const ProxyEvalResult& result,
                                               int n);

}  // namespace ahg

#endif  // AUTOHENS_CORE_PROXY_EVAL_H_
