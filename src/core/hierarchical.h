// Final-stage hierarchical ensemble: after search fixes the layer depths and
// ensemble weights, every sub-model is re-trained separately from scratch
// (paper Section III-C: "re-trained separately and aggregated in the way of
// the hierarchical ensemble") and predictions are combined as
//   Yhat = sum_j beta_j * (1/K) sum_k Yhat_{j,k}.
#ifndef AUTOHENS_CORE_HIERARCHICAL_H_
#define AUTOHENS_CORE_HIERARCHICAL_H_

#include <vector>

#include "graph/split.h"
#include "models/model_zoo.h"
#include "tasks/train_node.h"

namespace ahg {

struct HierarchicalResult {
  Matrix probs;  // combined full-graph probabilities
  double val_accuracy = 0.0;
  double test_accuracy = 0.0;
  double train_seconds = 0.0;
  // probs of each GSE (after the 1/K average), for diagnostics; an
  // architecture without members has none.
  std::vector<Matrix> per_model_probs;
};

// Trains the members TrainedEnsemble::PlanMembers lists for (pool, layers,
// seed) with TrainSingleNodeModel, then combines their probabilities with
// CombineMemberProbs: each architecture's K members averaged, then `beta`.
HierarchicalResult TrainHierarchicalEnsemble(
    const std::vector<CandidateSpec>& pool,
    const std::vector<std::vector<int>>& layers,
    const std::vector<double>& beta, const Graph& graph,
    const DataSplit& split, const TrainConfig& train_config, uint64_t seed);

// Convenience used by the robustness studies (Fig. 4): a single
// architecture's GSE with K differently-seeded members at depth
// `layers_per_member` (one entry per member).
HierarchicalResult TrainGse(const CandidateSpec& spec,
                            const std::vector<int>& layers_per_member,
                            const Graph& graph, const DataSplit& split,
                            const TrainConfig& train_config, uint64_t seed);

}  // namespace ahg

#endif  // AUTOHENS_CORE_HIERARCHICAL_H_
