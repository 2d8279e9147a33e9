// AutoHEnsGNN_Gradient (Section III-C2, Algorithm 1): jointly trains all
// N x K sub-models while treating the layer vectors alpha and ensemble
// weights beta as architecture parameters, alternating first-order updates
// of the weights (train loss) and of the architecture (validation loss).
#ifndef AUTOHENS_CORE_SEARCH_GRADIENT_H_
#define AUTOHENS_CORE_SEARCH_GRADIENT_H_

#include <functional>
#include <vector>

#include "graph/split.h"
#include "models/model_zoo.h"
#include "nn/optimizer.h"
#include "tasks/train_node.h"
#include "tensor/matrix.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace ahg {

// Complete mutable state of a gradient search at an epoch boundary. Unlike
// proxy evaluation and adaptive probing (independently seeded units), the
// gradient search co-trains everything, so resuming mid-search bitwise
// identically requires every moving part: parameter values, both Adam
// moment/step states, the dropout RNG position, and best-epoch tracking.
struct GradientSearchState {
  int epoch = 0;  // number of completed epochs this state follows
  std::vector<Matrix> weight_values;  // model weights, construction order
  std::vector<Matrix> arch_values;    // alphas then beta_raw (last)
  AdamState weight_opt;
  AdamState arch_opt;
  RngState dropout_rng;
  double best_val = -1.0;
  Matrix best_beta_raw;
  std::vector<Matrix> best_alphas;
  int epochs_since_best = 0;
};

struct GradientSearchConfig {
  int k = 3;                 // sub-models per self-ensemble
  int update_every = 1;      // M: epochs between architecture updates
  double arch_learning_rate = 3e-4;
  int max_epochs = 60;
  int patience = 5;  // paper: early stop with patience 5 during search
  TrainConfig train;  // model-weight optimizer settings
  uint64_t seed = 1;
  // Threads for the per-epoch eval forward, one self-ensemble per task. The
  // training forwards stay serial: they share one dropout stream. Results
  // are bitwise the same at every count.
  int num_threads = 1;
  // Cooperative cancellation, polled at epoch boundaries. A cancelled search
  // returns `interrupted = true`; its outputs are incomplete.
  const CancelToken* cancel = nullptr;
  // Snapshot cadence: every `checkpoint_every` completed epochs the search
  // calls `on_checkpoint` with its full state (0 disables). The state is
  // captured after the epoch's optimizer steps and best-epoch update, so a
  // resume continues at `epoch + 1` exactly as the uninterrupted run would.
  int checkpoint_every = 0;
  std::function<void(const GradientSearchState&)> on_checkpoint;
  // Resume support: when non-null the search restores this state (pool and k
  // must match the checkpointing run) and continues from `epoch + 1`. Not
  // owned; must outlive the call.
  const GradientSearchState* resume = nullptr;
};

struct GradientSearchResult {
  // layers[j][i]: chosen (1-based) depth of sub-model i of pool model j.
  std::vector<std::vector<int>> layers;
  std::vector<double> beta;  // softmax-normalized ensemble weights
  double val_accuracy = 0.0;
  double search_seconds = 0.0;
  // True when cancellation stopped the search early; layers/beta are then
  // incomplete and must not be used.
  bool interrupted = false;
};

GradientSearchResult SearchGradient(const std::vector<CandidateSpec>& pool,
                                    const Graph& graph,
                                    const DataSplit& split,
                                    const GradientSearchConfig& config);

}  // namespace ahg

#endif  // AUTOHENS_CORE_SEARCH_GRADIENT_H_
