#include "common/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "core/correct_smooth.h"
#include "core/proxy_eval.h"
#include "ensemble/baselines.h"
#include "metrics/aggregate.h"
#include "metrics/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ahg::bench {

bool FastMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) return true;
  }
  return false;
}

ObsFlags ParseObsFlags(int argc, char** argv) {
  ObsFlags flags;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0) {
      flags.trace_out = argv[i + 1];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0) {
      flags.metrics_out = argv[i + 1];
    }
  }
  if (!flags.trace_out.empty()) obs::TraceRecorder::Instance().Enable();
  return flags;
}

bool FlushObsOutputs(const ObsFlags& flags) {
  if (!flags.trace_out.empty()) {
    Status s =
        obs::TraceRecorder::Instance().WriteChromeTrace(flags.trace_out);
    if (!s.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", s.ToString().c_str());
      return false;
    }
    std::printf("wrote trace to %s\n", flags.trace_out.c_str());
  }
  if (!flags.metrics_out.empty()) {
    Status s = obs::MetricsRegistry::Global().WriteTsv(flags.metrics_out);
    if (!s.ok()) {
      std::fprintf(stderr, "metrics write failed: %s\n",
                   s.ToString().c_str());
      return false;
    }
    std::printf("wrote metrics to %s\n", flags.metrics_out.c_str());
  }
  return true;
}

TablePrinter::TablePrinter(std::vector<std::string> header) {
  rows_.push_back(std::move(header));
}

void TablePrinter::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

void TablePrinter::Print() const {
  std::vector<size_t> widths;
  for (const auto& row : rows_) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  for (size_t r = 0; r < rows_.size(); ++r) {
    std::string line;
    for (size_t c = 0; c < rows_[r].size(); ++c) {
      std::string cell = rows_[r][c];
      cell.resize(widths[c], ' ');
      line += cell;
      if (c + 1 < rows_[r].size()) line += "  ";
    }
    std::printf("%s\n", line.c_str());
    if (r == 0) {
      std::string rule;
      for (size_t c = 0; c < widths.size(); ++c) {
        rule += std::string(widths[c], '-');
        if (c + 1 < widths.size()) rule += "  ";
      }
      std::printf("%s\n", rule.c_str());
    }
  }
}

TrainConfig DefaultBenchTrain() {
  TrainConfig train;
  train.max_epochs = 30;
  train.patience = 6;
  train.learning_rate = 2e-2;
  return train;
}

std::vector<CandidateSpec> PaperSingleRoster() {
  // The nine single-model rows of Table II, mapped onto our zoo. GraphMix
  // and GRAND (regularization-based training schemes) are represented by
  // their closest architectural cousins that we implement from scratch:
  // MixHop (neighborhood mixing) and DAGNN (deep random-walk propagation).
  std::vector<CandidateSpec> roster;
  for (const char* name :
       {"GCN", "GAT", "APPNP", "TAGC", "DNA", "GraphSAGE-mean", "MixHop",
        "DAGNN", "GCNII"}) {
    roster.push_back(FindCandidate(name));
  }
  return roster;
}

std::vector<SingleRun> TrainSingles(const Graph& graph,
                                    const std::vector<CandidateSpec>& specs,
                                    const DataSplit& base_split, int bagging,
                                    double val_fraction,
                                    const TrainConfig& train, uint64_t seed) {
  std::vector<SingleRun> runs;
  runs.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    Rng resplit_rng(seed ^ (0x5151ULL + i));
    std::vector<Matrix> probs;
    double base_val_acc = 0.0;
    for (int b = 0; b < std::max(1, bagging); ++b) {
      DataSplit split = b == 0 ? base_split
                               : ResplitTrainVal(base_split, val_fraction,
                                                 &resplit_rng);
      ModelConfig mcfg = specs[i].config;
      mcfg.seed = seed + 37 * i + b;
      TrainConfig tcfg = train;
      tcfg.seed = mcfg.seed ^ 0xabcdULL;
      NodeTrainResult result = TrainSingleNodeModel(mcfg, graph, split, tcfg);
      if (b == 0) base_val_acc = result.val_accuracy;
      probs.push_back(std::move(result.probs));
    }
    SingleRun run;
    run.name = specs[i].name;
    run.bagged_probs = AverageProbs(probs);
    run.val_accuracy = base_val_acc;
    if (!base_split.test.empty()) {
      run.test_accuracy =
          Accuracy(run.bagged_probs, graph.labels(), base_split.test);
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

std::vector<int> PoolByProxyEval(const Graph& graph,
                                 const std::vector<CandidateSpec>& specs,
                                 int pool_n, const TrainConfig& train,
                                 uint64_t seed) {
  ProxyConfig proxy;
  proxy.dataset_ratio = 0.3;
  proxy.bagging = 2;
  proxy.model_ratio = 0.5;
  proxy.train = train;
  proxy.train.max_epochs = std::max(10, train.max_epochs * 2 / 3);
  ProxyEvalResult ranking = ProxyEvaluate(specs, graph, proxy, seed);
  std::vector<int> pool;
  for (const CandidateScore& score : ranking.ranked) {
    if (static_cast<int>(pool.size()) >= pool_n) break;
    for (size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].name == score.name) {
        pool.push_back(static_cast<int>(i));
        break;
      }
    }
  }
  return pool;
}

namespace {

void Record(std::vector<MethodScores>* out, const std::string& method,
            double acc) {
  for (auto& m : *out) {
    if (m.method == method) {
      m.test_accs.push_back(acc);
      return;
    }
  }
  out->push_back({method, {acc}});
}

}  // namespace

std::vector<MethodScores> RunNodeRoster(const Graph& graph,
                                        const RosterOptions& options) {
  std::vector<MethodScores> out;
  for (int rep = 0; rep < options.repeats; ++rep) {
    const uint64_t seed = options.seed + 7919ULL * rep;
    Rng rng(seed);
    DataSplit split =
        options.per_class_split
            ? PerClassSplit(graph, options.per_class, options.val_count,
                            options.test_count, &rng)
            : RandomSplit(graph, options.train_fraction,
                          options.val_fraction, &rng);

    // Single models (bagged, like every other method).
    std::vector<SingleRun> singles =
        TrainSingles(graph, options.singles, split, options.bagging,
                     options.val_fraction, options.train, seed);
    if (options.run_singles) {
      for (const SingleRun& run : singles) {
        Record(&out, run.name, run.test_accuracy);
      }
    }

    if (options.run_label_prop) {
      Record(&out, "LabelProp",
             Accuracy(LabelPropagation(graph, split.train, 30, 0.8),
                      graph.labels(), split.test));
    }
    if (options.run_correct_smooth) {
      // Post-process the best-validation single model, the paper's
      // "GAT + C&S"-style trick row.
      size_t best = 0;
      for (size_t i = 1; i < singles.size(); ++i) {
        if (singles[i].val_accuracy > singles[best].val_accuracy) best = i;
      }
      Matrix refined = CorrectAndSmooth(singles[best].bagged_probs, graph,
                                        split.train, CorrectSmoothConfig());
      Record(&out, "Best single + C&S",
             Accuracy(refined, graph.labels(), split.test));
    }

    // Shared pool from real proxy evaluation.
    std::vector<int> pool = PoolByProxyEval(graph, options.singles,
                                            options.pool_n, options.train,
                                            seed ^ 0x9999ULL);
    std::vector<Matrix> pool_probs;
    std::vector<CandidateSpec> pool_specs;
    for (int idx : pool) {
      pool_probs.push_back(singles[idx].bagged_probs);
      pool_specs.push_back(options.singles[idx]);
    }

    if (options.run_random_ensemble) {
      Rng pick_rng(seed ^ 0x12344321ULL);
      std::vector<int> random_pool = RandomEnsembleSelect(
          static_cast<int>(options.singles.size()), options.pool_n,
          &pick_rng);
      std::vector<Matrix> member_probs;
      for (int idx : random_pool) {
        member_probs.push_back(singles[idx].bagged_probs);
      }
      Record(&out, "Random Ensemble",
             Accuracy(AverageProbs(member_probs), graph.labels(),
                      split.test));
    }

    if (options.run_ensembles) {
      Record(&out, "D-ensemble",
             Accuracy(AverageProbs(pool_probs), graph.labels(), split.test));
      std::vector<double> learned = LearnEnsembleWeights(
          pool_probs, graph.labels(), split.val, /*epochs=*/200,
          /*learning_rate=*/0.05);
      Record(&out, "L-ensemble",
             Accuracy(WeightedProbs(pool_probs, learned), graph.labels(),
                      split.test));
      std::vector<int> greedy =
          GreedyEnsembleSelect(pool_probs, graph.labels(), split.val);
      std::vector<Matrix> greedy_probs;
      for (int idx : greedy) greedy_probs.push_back(pool_probs[idx]);
      Record(&out, "Goyal et al.",
             Accuracy(AverageProbs(greedy_probs), graph.labels(),
                      split.test));
    }

    if (options.run_autohens) {
      for (SearchAlgo algo : {SearchAlgo::kAdaptive, SearchAlgo::kGradient}) {
        AutoHEnsConfig cfg;
        cfg.pool_size = options.pool_n;
        cfg.k = options.k;
        cfg.algo = algo;
        cfg.fixed_pool = pool_specs;  // share the PE pool across methods
        cfg.train = options.train;
        cfg.adaptive.train = options.train;
        cfg.gradient.max_epochs = options.train.max_epochs / 2 + 5;
        cfg.bagging_splits = options.bagging;
        cfg.val_fraction = options.val_fraction;
        cfg.seed = seed ^ (algo == SearchAlgo::kAdaptive ? 0xadaULL
                                                         : 0x9badULL);
        AutoHEnsResult result = RunAutoHEnsGnn(graph, split, {}, cfg);
        Record(&out,
               algo == SearchAlgo::kAdaptive ? "AutoHEnsGNN(Adaptive)"
                                             : "AutoHEnsGNN(Gradient)",
               result.test_accuracy);
      }
    }
  }
  return out;
}

std::string MeanStdCell(const std::vector<double>& values) {
  return FormatMeanStd(Summarize(values), /*percent=*/true);
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace ahg::bench
