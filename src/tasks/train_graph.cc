#include "tasks/train_graph.h"

#include <numeric>

#include "autodiff/ops.h"
#include "metrics/metrics.h"
#include "models/graph_level.h"
#include "nn/linear.h"
#include "util/stopwatch.h"

namespace ahg {

GraphSetSplit RandomGraphSetSplit(const GraphSet& set, double train_fraction,
                                  double val_fraction, Rng* rng) {
  std::vector<int> indices(set.graphs.size());
  std::iota(indices.begin(), indices.end(), 0);
  rng->Shuffle(&indices);
  const int n = static_cast<int>(indices.size());
  const int n_train = std::max(1, static_cast<int>(n * train_fraction));
  const int n_val = static_cast<int>(n * val_fraction);
  GraphSetSplit split;
  split.train.assign(indices.begin(), indices.begin() + n_train);
  split.val.assign(indices.begin() + n_train,
                   indices.begin() + std::min(n, n_train + n_val));
  split.test.assign(indices.begin() + std::min(n, n_train + n_val),
                    indices.end());
  return split;
}

GraphTrainResult TrainGraphClassifier(const ModelConfig& model_config,
                                      const GraphSet& set,
                                      const GraphSetSplit& split,
                                      const TrainConfig& train_config,
                                      std::vector<Matrix>* best_params) {
  Stopwatch watch;
  // One merged batch over the whole set; masks pick the partition, exactly
  // like transductive node classification.
  std::vector<int> all_indices(set.graphs.size());
  std::iota(all_indices.begin(), all_indices.end(), 0);
  const GraphBatch batch = BatchGraphs(set, all_indices);

  ModelConfig cfg = model_config;
  cfg.in_dim = set.feature_dim;
  std::unique_ptr<GnnModel> model = BuildModel(cfg);
  Rng init_rng(cfg.seed ^ 0x51ed2701ULL);
  Linear head(model->params(), cfg.hidden_dim, set.num_classes,
              /*bias=*/true, &init_rng);

  Rng dropout_rng(train_config.seed);
  auto forward_logits = [&](bool training) {
    std::vector<Var> pooled = PooledLayerOutputs(model.get(), batch, training,
                                                 &dropout_rng,
                                                 /*mean_pool=*/false);
    return head.Apply(pooled.back());
  };

  // Without val graphs the train graphs stand in.
  const std::vector<int>& eval_graphs =
      split.val.empty() ? split.train : split.val;
  GraphTrainResult result;
  Matrix probs;
  const NodeTrainRun run = RunEpochs(
      model->params(), train_config, /*steps_per_epoch=*/1,
      [&](int) {
        return MaskedCrossEntropy(forward_logits(true), set.labels,
                                  split.train);
      },
      [&] {
        probs = RowSoftmax(forward_logits(false)->value);
        return Accuracy(probs, set.labels, eval_graphs);
      },
      [&] { result.probs = std::move(probs); }, best_params);
  result.val_accuracy = run.best_score;
  if (!split.test.empty()) {
    result.test_accuracy = Accuracy(result.probs, set.labels, split.test);
  }
  result.train_seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace ahg
