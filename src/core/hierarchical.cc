#include "core/hierarchical.h"

#include "core/trained_ensemble.h"
#include "metrics/metrics.h"
#include "util/stopwatch.h"

namespace ahg {

HierarchicalResult TrainHierarchicalEnsemble(
    const std::vector<CandidateSpec>& pool,
    const std::vector<std::vector<int>>& layers,
    const std::vector<double>& beta, const Graph& graph,
    const DataSplit& split, const TrainConfig& train_config, uint64_t seed) {
  AHG_CHECK(!pool.empty());
  AHG_CHECK_EQ(pool.size(), beta.size());
  Stopwatch watch;
  std::vector<Matrix> member_probs;
  std::vector<int> pool_index;
  for (const MemberSpec& spec : TrainedEnsemble::PlanMembers(
           pool, layers, graph, train_config, seed)) {
    member_probs.push_back(
        TrainSingleNodeModel(spec.config, graph, split, spec.train).probs);
    pool_index.push_back(spec.pool_index);
  }
  HierarchicalResult result;
  result.probs = CombineMemberProbs(std::move(member_probs), pool_index, beta,
                                    &result.per_model_probs);
  if (!split.val.empty()) {
    result.val_accuracy = Accuracy(result.probs, graph.labels(), split.val);
  }
  if (!split.test.empty()) {
    result.test_accuracy = Accuracy(result.probs, graph.labels(), split.test);
  }
  result.train_seconds = watch.ElapsedSeconds();
  return result;
}

HierarchicalResult TrainGse(const CandidateSpec& spec,
                            const std::vector<int>& layers_per_member,
                            const Graph& graph, const DataSplit& split,
                            const TrainConfig& train_config, uint64_t seed) {
  return TrainHierarchicalEnsemble({spec}, {layers_per_member}, {1.0}, graph,
                                   split, train_config, seed);
}

}  // namespace ahg
