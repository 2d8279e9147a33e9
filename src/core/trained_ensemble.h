// A persistent, inference-ready hierarchical ensemble. Each member trains
// through the node-training loop of tasks/train_node.h (RunNodeTraining),
// and TrainedEnsemble keeps every member's best-epoch weights, so the
// ensemble can
//   * predict on a DIFFERENT graph than it was trained on (our zoo models
//     are inductive: weights are independent of graph size), e.g. train on
//     a proxy subgraph and predict on the full graph, and
//   * be saved to / loaded from disk (one AHGM file per member plus a
//     manifest), the deployment artifact a competition submission ships.
// TrainHierarchicalEnsemble (core/hierarchical.h) trains the same member
// plan and combines with CombineMemberProbs, but keeps only predictions.
#ifndef AUTOHENS_CORE_TRAINED_ENSEMBLE_H_
#define AUTOHENS_CORE_TRAINED_ENSEMBLE_H_

#include <string>
#include <vector>

#include "graph/split.h"
#include "models/model_zoo.h"
#include "tasks/train_node.h"
#include "util/status.h"

namespace ahg {

// One fully resolved member-training unit of a hierarchical ensemble: model
// config (depth + weight seed applied) and train config (dropout seed
// applied). Members are seeded independently of each other, so they can be
// trained one at a time, in any order, with identical results — the unit of
// per-member checkpointing in the job service.
struct MemberSpec {
  ModelConfig config;
  TrainConfig train;
  int pool_index = 0;
  int num_classes = 0;
};

// The hierarchical combiner, Yhat = sum_j beta_j * (1/K_j) sum_k Yhat_{j,k}:
// averages the member probabilities of each architecture in member order
// (member i belongs to architecture pool_index[i]), then sums the averages
// weighted by beta. Architectures without members are skipped. When
// non-null, `per_model_probs` receives the averages in architecture order.
Matrix CombineMemberProbs(std::vector<Matrix> member_probs,
                          const std::vector<int>& pool_index,
                          const std::vector<double>& beta,
                          std::vector<Matrix>* per_model_probs);

class TrainedEnsemble {
 public:
  TrainedEnsemble() = default;

  // Trains pool[j] members at depths layers[j][k] and retains the
  // best-validation weights of every member. Equivalent to PlanMembers +
  // TrainMember over every spec + FromParts.
  static TrainedEnsemble Train(const std::vector<CandidateSpec>& pool,
                               const std::vector<std::vector<int>>& layers,
                               const std::vector<double>& beta,
                               const Graph& graph, const DataSplit& split,
                               const TrainConfig& train_config,
                               uint64_t seed);

  // Resolves the full member list Train() would process, without training.
  static std::vector<MemberSpec> PlanMembers(
      const std::vector<CandidateSpec>& pool,
      const std::vector<std::vector<int>>& layers, const Graph& graph,
      const TrainConfig& train_config, uint64_t seed);

  // Trains a single planned member with RunNodeTraining and returns its
  // best-validation weight snapshot (model weights followed by the
  // classifier head); without val rows, the best train accuracy decides.
  // Honors spec.train.cancel at epoch boundaries; a cancelled training
  // returns a partial snapshot the caller must discard.
  static std::vector<Matrix> TrainMember(const MemberSpec& spec,
                                         const Graph& graph,
                                         const DataSplit& split);

  // Reassembles an ensemble from planned specs and their trained snapshots
  // (parallel arrays) — the resume path after per-member checkpointing.
  static TrainedEnsemble FromParts(const std::vector<MemberSpec>& specs,
                                   std::vector<std::vector<Matrix>> params,
                                   const std::vector<double>& beta);

  // Full-graph class probabilities on an arbitrary graph with the same
  // feature dimensionality and class count. Members run their forwards on
  // up to `num_threads` threads (ParallelFor); the result is bitwise the
  // same at every thread count.
  Matrix PredictProba(const Graph& graph, int num_threads = 1) const;

  // Serializes to `dir`: one .ahgm per member, then manifest.tsv (beta at
  // round-trip precision, one member file row each). Every file is written
  // atomically and the manifest last, so it is the commit point. Load
  // validates every member against its config and the manifest's class
  // count.
  Status Save(const std::string& dir) const;
  static StatusOr<TrainedEnsemble> Load(const std::string& dir);

  int num_members() const { return static_cast<int>(members_.size()); }
  const std::vector<double>& beta() const { return beta_; }

  // Lead member for single-model serving: the first (k = 0) member of the
  // architecture with the largest beta weight, lowest pool index on ties.
  int LeadMemberIndex() const;
  const ModelConfig& member_config(int i) const { return members_[i].config; }
  const std::vector<Matrix>& member_params(int i) const {
    return members_[i].params;
  }
  int member_num_classes(int i) const { return members_[i].num_classes; }

 private:
  struct Member {
    ModelConfig config;          // includes depth + seed
    std::vector<Matrix> params;  // model weights + classifier head (last 2)
    int pool_index = 0;          // which architecture this member belongs to
    int num_classes = 0;
  };

  std::vector<Member> members_;
  std::vector<double> beta_;  // one weight per architecture (pool index)
};

}  // namespace ahg

#endif  // AUTOHENS_CORE_TRAINED_ENSEMBLE_H_
