#include "tasks/train_link.h"

#include <cmath>

#include "autodiff/ops.h"
#include "metrics/metrics.h"
#include "models/link_encoder.h"
#include "util/stopwatch.h"

namespace ahg {
namespace {

// Positives followed by negatives, with their LinkLabels.
struct LabeledPairs {
  std::vector<NodePair> pairs;
  std::vector<int> labels;
};

LabeledPairs Label(const std::vector<NodePair>& pos,
                   const std::vector<NodePair>& neg) {
  LabeledPairs out{pos, LinkLabels(static_cast<int>(pos.size()),
                                   static_cast<int>(neg.size()))};
  out.pairs.insert(out.pairs.end(), neg.begin(), neg.end());
  return out;
}

std::vector<double> SigmoidScores(const Var& logits) {
  std::vector<double> scores(logits->rows());
  for (int r = 0; r < logits->rows(); ++r) {
    scores[r] = 1.0 / (1.0 + std::exp(-logits->value(r, 0)));
  }
  return scores;
}

}  // namespace

std::vector<int> LinkLabels(int num_pos, int num_neg) {
  std::vector<int> labels(num_pos, 1);
  labels.insert(labels.end(), num_neg, 0);
  return labels;
}

LinkTrainResult TrainLinkModel(const ModelConfig& model_config,
                               const LinkSplit& split,
                               const TrainConfig& train_config,
                               std::vector<Matrix>* best_params) {
  Stopwatch watch;
  const Graph& graph = split.train_graph;
  ModelConfig cfg = model_config;
  cfg.in_dim = graph.feature_dim();
  std::unique_ptr<GnnModel> model = BuildModel(cfg);

  Rng dropout_rng(train_config.seed);
  Var features = MakeConstant(graph.features());

  const LabeledPairs train = Label(split.train_pos, split.train_neg);
  const LabeledPairs val = Label(split.val_pos, split.val_neg);
  const LabeledPairs test = Label(split.test_pos, split.test_neg);
  const std::vector<double> train_targets(train.labels.begin(),
                                          train.labels.end());
  // Without val pairs the train pairs stand in.
  const bool has_val = !val.pairs.empty();
  const LabeledPairs& eval = has_val ? val : train;

  auto embed = [&](bool training) {
    GnnContext ctx{&graph, training, &dropout_rng};
    return model->LayerOutputs(ctx, features).back();
  };

  LinkTrainResult result;
  Var z;
  std::vector<double> eval_scores;
  const NodeTrainRun run = RunEpochs(
      model->params(), train_config, /*steps_per_epoch=*/1,
      [&](int) {
        return BceWithLogits(ScorePairs(embed(true), train.pairs),
                             train_targets);
      },
      [&] {
        z = embed(false);
        eval_scores = SigmoidScores(ScorePairs(z, eval.pairs));
        return RocAuc(eval_scores, eval.labels);
      },
      [&] {
        if (has_val) result.val_scores = std::move(eval_scores);
        if (!test.pairs.empty()) {
          result.test_scores = SigmoidScores(ScorePairs(z, test.pairs));
          result.test_auc = RocAuc(result.test_scores, test.labels);
        }
      },
      best_params);
  result.val_auc = run.best_score;
  result.train_seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace ahg
