// The epoch protocol every trainer in src/tasks/ runs (the paper's appendix
// A1 setup: Adam with weight decay, stepwise LR decay, and early stopping on
// a validation score with best-epoch capture), and full-batch training of a
// single node-classification model on it: a zoo model plus a linear
// classifier head on its last layer output.
#ifndef AUTOHENS_TASKS_TRAIN_NODE_H_
#define AUTOHENS_TASKS_TRAIN_NODE_H_

#include <functional>
#include <vector>

#include "graph/graph.h"
#include "graph/split.h"
#include "models/model.h"
#include "nn/parameter_store.h"
#include "util/cancel.h"

namespace ahg {

struct TrainConfig {
  int max_epochs = 120;
  int patience = 15;  // early-stop patience in epochs
  double learning_rate = 1e-2;
  double weight_decay = 5e-4;
  double lr_decay = 0.9;
  int lr_decay_every = 3;
  uint64_t seed = 1;  // dropout-noise seed (weight init comes from the model)
  // Kernel threads (SpMM/GEMM) while any trainer runs; 0 keeps the global
  // SetNumThreads() setting. Ignored when training already runs inside a
  // parallel region (e.g. proxy evaluation), where kernels execute inline.
  int num_threads = 0;
  // Optional cooperative cancellation, polled by every trainer per epoch. A
  // cancelled run returns its best-so-far result early; callers that need
  // complete results must check the token after the call. Not owned; must
  // outlive the run. Safe to set from another thread.
  const CancelToken* cancel = nullptr;
};

// What a training run reports.
struct NodeTrainRun {
  double best_score = 0.0;  // eval score of the kept epoch
  int best_epoch = 0;       // 0 when no epoch ran
  int epochs = 0;           // epochs run, the early-stopped one included
};

// The epoch loop of every trainer: Adam over `params`, each epoch
// `steps_per_epoch` steps of ZeroGrad, `step_loss(step)`, Backward, Adam
// step, then the LR decay, then `eval_score()` under ScopedInferenceMode.
// Epoch 1 and every strictly higher score are new bests: `keep_best()` then
// keeps what the caller needs of that epoch, and `best_params` (may be null;
// it starts as the initial weights) a snapshot of `params`. Stops after
// `patience` epochs without a new best, at max_epochs or at the cancel.
NodeTrainRun RunEpochs(ParameterStore* params, const TrainConfig& train_config,
                       int steps_per_epoch,
                       const std::function<Var(int step)>& step_loss,
                       const std::function<double()>& eval_score,
                       const std::function<void()>& keep_best,
                       std::vector<Matrix>* best_params);

struct NodeTrainResult {
  Matrix probs;  // full-graph class probabilities at the best epoch
  double val_accuracy = 0.0;
  double test_accuracy = 0.0;  // 0 when the split has no test nodes
  int best_epoch = 0;
  double train_seconds = 0.0;
};

// Builds the model from `model_config` (in_dim is filled from the graph) and
// trains it on `split`, keeping the epoch of the best val accuracy. Without
// val rows the train rows stand in: the kept epoch is the one of the best
// train accuracy, which `val_accuracy` then reports.
NodeTrainResult TrainSingleNodeModel(const ModelConfig& model_config,
                                     const Graph& graph,
                                     const DataSplit& split,
                                     const TrainConfig& train_config);

// The full-batch node training behind TrainSingleNodeModel and
// TrainedEnsemble::TrainMember. Builds the model of `model_config` (whose
// in_dim must match the graph) under a `num_classes`-way linear head drawn
// from Rng(head_seed), then trains it on `split` with RunEpochs, scoring
// the val accuracy as described above. On every new best epoch it keeps
// that epoch's eval-mode full-graph logits in `best_logits` and the model
// weights followed by the head in `best_params`; either may be null.
NodeTrainRun RunNodeTraining(const ModelConfig& model_config, int num_classes,
                             uint64_t head_seed, const Graph& graph,
                             const DataSplit& split,
                             const TrainConfig& train_config,
                             Matrix* best_logits,
                             std::vector<Matrix>* best_params);

}  // namespace ahg

#endif  // AUTOHENS_TASKS_TRAIN_NODE_H_
