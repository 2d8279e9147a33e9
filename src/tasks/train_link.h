// Link prediction (Table VIII): a zoo model encodes nodes, a dot-product
// decoder scores pairs, trained with binary cross-entropy against sampled
// negatives and early-stopped on validation AUC.
#ifndef AUTOHENS_TASKS_TRAIN_LINK_H_
#define AUTOHENS_TASKS_TRAIN_LINK_H_

#include <vector>

#include "graph/split.h"
#include "models/model.h"
#include "tasks/train_node.h"

namespace ahg {

struct LinkTrainResult {
  double val_auc = 0.0;
  double test_auc = 0.0;
  // Sigmoid scores at the best epoch, ordered positives-then-negatives to
  // match Labels() below; kept so ensembles can average scores.
  std::vector<double> val_scores;
  std::vector<double> test_scores;
  double train_seconds = 0.0;
};

// 1-labels for positives followed by 0-labels for negatives.
std::vector<int> LinkLabels(int num_pos, int num_neg);

// Trains on RunEpochs' protocol, keeping the epoch of the best val AUC.
// Without val pairs the train pairs stand in: the kept epoch is the one of
// the best train AUC, which `val_auc` then reports, and `val_scores` stays
// empty. Without test pairs `test_auc` stays 0 and `test_scores` empty.
// When `best_params` is non-null it receives the encoder's best-validation
// weight snapshot (ParameterStore order), so the winner of a search job can
// be persisted and served without retraining. Honors train_config.cancel at
// epoch boundaries (best-so-far result, partial snapshot).
LinkTrainResult TrainLinkModel(const ModelConfig& model_config,
                               const LinkSplit& split,
                               const TrainConfig& train_config,
                               std::vector<Matrix>* best_params = nullptr);

}  // namespace ahg

#endif  // AUTOHENS_TASKS_TRAIN_LINK_H_
