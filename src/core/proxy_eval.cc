#include "core/proxy_eval.h"

#include <algorithm>
#include <cmath>

#include "graph/sampling.h"
#include "metrics/aggregate.h"
#include "obs/trace.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace ahg {

ProxyEvalResult ProxyEvaluate(const std::vector<CandidateSpec>& pool,
                              const Graph& graph, const ProxyConfig& config,
                              uint64_t seed) {
  AHG_TRACE_SPAN_ARG("search/proxy_eval", static_cast<int64_t>(pool.size()));
  Stopwatch total_watch;
  // One proxy graph + split per bagging round, shared by all candidates so
  // every model is ranked on identical data.
  struct Round {
    Subgraph sub;
    DataSplit split;
  };
  std::vector<Round> rounds(config.bagging);
  Rng rng(seed);
  for (int b = 0; b < config.bagging; ++b) {
    Rng round_rng = rng.Fork();
    if (config.dataset_ratio >= 1.0) {
      rounds[b].sub.graph = graph;
      rounds[b].sub.node_map.resize(graph.num_nodes());
      for (int i = 0; i < graph.num_nodes(); ++i) {
        rounds[b].sub.node_map[i] = i;
      }
    } else {
      rounds[b].sub =
          SampleInducedSubgraph(graph, config.dataset_ratio, &round_rng);
    }
    rounds[b].split = RandomSplit(rounds[b].sub.graph, config.train_fraction,
                                  config.val_fraction, &round_rng);
  }

  ProxyEvalResult result;
  result.ranked.resize(pool.size());
  // Tracks which slots finished; cancelled candidates never enter the
  // ranking (a partially trained score would not be reproducible).
  std::vector<char> scored(pool.size(), 0);
  ParallelFor(
      static_cast<int>(pool.size()), config.num_threads, [&](int i) {
        if (auto it = config.precomputed.find(i);
            it != config.precomputed.end()) {
          result.ranked[i] = it->second;
          scored[i] = 1;
          return;
        }
        if (IsCancelled(config.cancel)) return;
        AHG_TRACE_SPAN_ARG("search/proxy_candidate", i);
        const CandidateSpec& spec = pool[i];
        CandidateScore score;
        score.name = spec.name;
        score.config = spec.config;
        score.original_config = spec.config;
        score.config.hidden_dim = std::max(
            4, static_cast<int>(
                   std::lround(spec.config.hidden_dim * config.model_ratio)));
        Stopwatch watch;
        std::vector<double> accs;
        for (int b = 0; b < config.bagging; ++b) {
          if (IsCancelled(config.cancel)) return;
          ModelConfig mcfg = score.config;
          mcfg.seed = seed ^ (static_cast<uint64_t>(b) << 16) ^
                      (static_cast<uint64_t>(i) << 32);
          TrainConfig tcfg = config.train;
          tcfg.seed = mcfg.seed + 1;
          tcfg.cancel = config.cancel;
          const NodeTrainResult trained = TrainSingleNodeModel(
              mcfg, rounds[b].sub.graph, rounds[b].split, tcfg);
          // A cancel that fired mid-training produced a partial result;
          // drop the whole candidate rather than score it inconsistently.
          if (IsCancelled(config.cancel)) return;
          accs.push_back(trained.val_accuracy);
        }
        const RunStats stats = Summarize(accs);
        score.mean_val_accuracy = stats.mean;
        score.stddev = stats.stddev;
        score.seconds = watch.ElapsedSeconds();
        if (config.on_candidate_done) config.on_candidate_done(i, score);
        result.ranked[i] = std::move(score);
        scored[i] = 1;
      });

  result.interrupted = IsCancelled(config.cancel);
  // Compact away unscored slots (only possible after a cancel) before the
  // rank sort; index order is preserved, so the stable sort tie-breaks
  // exactly as an uninterrupted run would.
  std::vector<CandidateScore> complete;
  complete.reserve(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    if (scored[i]) complete.push_back(std::move(result.ranked[i]));
  }
  result.ranked = std::move(complete);
  std::stable_sort(result.ranked.begin(), result.ranked.end(),
                   [](const CandidateScore& a, const CandidateScore& b) {
                     return a.mean_val_accuracy > b.mean_val_accuracy;
                   });
  result.total_seconds = total_watch.ElapsedSeconds();
  return result;
}

std::vector<CandidateSpec> SelectTopCandidates(const ProxyEvalResult& result,
                                               int n) {
  std::vector<CandidateSpec> top;
  for (const CandidateScore& score : result.ranked) {
    if (static_cast<int>(top.size()) >= n) break;
    CandidateSpec spec;
    spec.name = score.name;
    spec.config = score.original_config;
    top.push_back(std::move(spec));
  }
  return top;
}

}  // namespace ahg
