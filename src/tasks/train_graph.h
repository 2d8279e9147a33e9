// Graph classification (Table IX): zoo model on the block-diagonal batch,
// sum-pool readout per graph, linear classifier, early stopping on
// validation accuracy.
#ifndef AUTOHENS_TASKS_TRAIN_GRAPH_H_
#define AUTOHENS_TASKS_TRAIN_GRAPH_H_

#include <vector>

#include "graph/graph_set.h"
#include "models/model.h"
#include "tasks/train_node.h"

namespace ahg {

struct GraphSetSplit {
  std::vector<int> train;  // indices into GraphSet.graphs
  std::vector<int> val;
  std::vector<int> test;
};

GraphSetSplit RandomGraphSetSplit(const GraphSet& set, double train_fraction,
                                  double val_fraction, Rng* rng);

struct GraphTrainResult {
  Matrix probs;  // per-graph probabilities over the whole set (set order)
  double val_accuracy = 0.0;
  double test_accuracy = 0.0;
  double train_seconds = 0.0;
};

// Trains on RunEpochs' protocol, keeping the epoch of the best val accuracy.
// Without val graphs the train graphs stand in: the kept epoch is the one of
// the best train accuracy, which `val_accuracy` then reports.
// When `best_params` is non-null it receives the best-validation snapshot
// of the model weights plus the pooled classifier head (last two tensors),
// so a search job's winner can be persisted and served without retraining.
// Honors train_config.cancel at epoch boundaries.
GraphTrainResult TrainGraphClassifier(const ModelConfig& model_config,
                                      const GraphSet& set,
                                      const GraphSetSplit& split,
                                      const TrainConfig& train_config,
                                      std::vector<Matrix>* best_params =
                                          nullptr);

}  // namespace ahg

#endif  // AUTOHENS_TASKS_TRAIN_GRAPH_H_
