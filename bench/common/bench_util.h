// Shared machinery for the table/figure reproduction benches: aligned table
// printing, the standard method roster (single models, ensemble baselines,
// AutoHEnsGNN variants) and bagged single-model training.
//
// Every bench accepts --fast to shrink repeats for smoke testing; the
// default (no-argument) invocation runs the full reproduction settings.
#ifndef AUTOHENS_BENCH_COMMON_BENCH_UTIL_H_
#define AUTOHENS_BENCH_COMMON_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "core/autohens.h"
#include "graph/graph.h"
#include "graph/split.h"
#include "models/model_zoo.h"
#include "tasks/train_node.h"

namespace ahg::bench {

// True when --fast was passed (smoke-test mode: fewer repeats/epochs).
bool FastMode(int argc, char** argv);

// Observability flags shared by the benches: --trace-out FILE enables
// tracing and (at FlushObsOutputs) writes a chrome://tracing JSON timeline;
// --metrics-out FILE dumps the process metrics registry as TSV.
struct ObsFlags {
  std::string trace_out;
  std::string metrics_out;
};

// Parses the flags above and enables tracing when --trace-out was given.
ObsFlags ParseObsFlags(int argc, char** argv);

// Writes whichever outputs were requested; returns false (and prints to
// stderr) when a write fails. Call once, after the measured work.
bool FlushObsOutputs(const ObsFlags& flags);

// Column-aligned plain-text table.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);
  void AddRow(std::vector<std::string> row);
  void Print() const;

 private:
  std::vector<std::vector<std::string>> rows_;
};

// Training settings shared by the benches (sized for a single CPU core).
TrainConfig DefaultBenchTrain();

// The paper's Table II/III single-model roster mapped onto our zoo.
std::vector<CandidateSpec> PaperSingleRoster();

// One single model trained with outer bagging over train/val resplits.
struct SingleRun {
  std::string name;
  Matrix bagged_probs;  // averaged over bagging rounds
  double val_accuracy = 0.0;  // on the base split's validation set
  double test_accuracy = 0.0;
};

std::vector<SingleRun> TrainSingles(const Graph& graph,
                                    const std::vector<CandidateSpec>& specs,
                                    const DataSplit& base_split, int bagging,
                                    double val_fraction,
                                    const TrainConfig& train, uint64_t seed);

// Pool selection by real proxy evaluation over `specs`; returns indices
// into `specs`, best first.
std::vector<int> PoolByProxyEval(const Graph& graph,
                                 const std::vector<CandidateSpec>& specs,
                                 int pool_n, const TrainConfig& train,
                                 uint64_t seed);

struct RosterOptions {
  int repeats = 2;
  int bagging = 2;  // train/val resplits bagged into every method
  double train_fraction = 0.4;
  double val_fraction = 0.2;
  bool per_class_split = false;  // Planetoid protocol (Table III)
  int per_class = 20;
  int val_count = 500;
  int test_count = 1000;
  TrainConfig train;
  int pool_n = 3;
  int k = 3;
  bool run_singles = true;
  bool run_random_ensemble = false;
  bool run_ensembles = true;  // D-ensemble, L-ensemble, Goyal et al.
  bool run_autohens = true;   // Adaptive + Gradient
  bool run_label_prop = false;      // classic label-propagation baseline
  bool run_correct_smooth = false;  // best single + C&S (Table V trick rows)
  std::vector<CandidateSpec> singles;
  uint64_t seed = 1;
};

struct MethodScores {
  std::string method;
  std::vector<double> test_accs;  // one entry per repeat
};

// Runs the full method roster `repeats` times on `graph`; all ensemble
// methods share the proxy-evaluation pool, exactly as in Tables II/III.
std::vector<MethodScores> RunNodeRoster(const Graph& graph,
                                        const RosterOptions& options);

// "86.1±0.2" from a per-repeat score vector (percent).
std::string MeanStdCell(const std::vector<double>& values);

// Upper median of timing samples; `samples` must be non-empty.
double Median(std::vector<double> samples);

}  // namespace ahg::bench

#endif  // AUTOHENS_BENCH_COMMON_BENCH_UTIL_H_
