#include "tasks/train_node.h"

#include "autodiff/ops.h"
#include "metrics/metrics.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace ahg {

NodeTrainResult TrainSingleNodeModel(const ModelConfig& model_config,
                                     const Graph& graph,
                                     const DataSplit& split,
                                     const TrainConfig& train_config) {
  AHG_TRACE_SPAN("train/node_model");
  Stopwatch watch;
  // Apply the per-config kernel-thread override for the duration of this
  // training run. Skipped inside a parallel region (proxy evaluation trains
  // candidates concurrently): kernels run inline there, and mutating the
  // global setting from worker threads would race across candidates.
  ScopedNumThreads scoped_threads(
      InParallelRegion() ? 0 : train_config.num_threads);
  ModelConfig cfg = model_config;
  cfg.in_dim = graph.feature_dim();
  AHG_CHECK_GT(cfg.in_dim, 0);
  std::unique_ptr<GnnModel> model = BuildModel(cfg);
  Rng init_rng(cfg.seed ^ 0x9e3779b9ULL);
  Linear head(model->params(), cfg.hidden_dim, graph.num_classes(),
              /*bias=*/true, &init_rng);

  AdamConfig adam_config;
  adam_config.learning_rate = train_config.learning_rate;
  adam_config.weight_decay = train_config.weight_decay;
  Adam optimizer(model->params()->params(), adam_config);

  Rng dropout_rng(train_config.seed);
  Var features = MakeConstant(graph.features());

  auto forward_logits = [&](bool training) {
    GnnContext ctx;
    ctx.graph = &graph;
    ctx.training = training;
    ctx.rng = &dropout_rng;
    std::vector<Var> layers = model->LayerOutputs(ctx, features);
    return head.Apply(layers.back());
  };

  // Validation reads only the val rows (the train rows when there are
  // none), and RowSoftmax and Accuracy are row-independent, so each epoch
  // takes the softmax of those rows alone; all rows only on an epoch whose
  // probs are kept.
  const std::vector<int>& eval_nodes =
      split.val.empty() ? split.train : split.val;
  std::vector<int> eval_labels, eval_rows;
  for (int node : eval_nodes) {
    eval_labels.push_back(graph.labels()[node]);
    eval_rows.push_back(static_cast<int>(eval_rows.size()));
  }

  NodeTrainResult result;
  int epochs_since_best = 0;
  static obs::Counter* epochs_counter =
      obs::MetricsRegistry::Global().GetCounter("train.epochs");
  for (int epoch = 1; epoch <= train_config.max_epochs; ++epoch) {
    if (IsCancelled(train_config.cancel)) break;
    AHG_TRACE_SPAN_ARG("train/epoch", epoch);
    epochs_counter->Increment();
    // Train step.
    model->params()->ZeroGrad();
    Var loss =
        MaskedCrossEntropy(forward_logits(true), graph.labels(), split.train);
    Backward(loss);
    optimizer.Step();
    if (train_config.lr_decay_every > 0 &&
        epoch % train_config.lr_decay_every == 0) {
      optimizer.set_learning_rate(optimizer.learning_rate() *
                                  train_config.lr_decay);
    }

    // Validation: an eval-mode forward (no dropout) off the tape.
    Matrix logits;
    {
      ScopedInferenceMode inference;
      logits = std::move(forward_logits(false)->value);
    }
    const double eval_acc = Accuracy(
        RowSoftmax(GatherRows(logits, eval_nodes)), eval_labels, eval_rows);
    const double val_acc = split.val.empty() ? -eval_acc : eval_acc;
    if (epoch == 1 || val_acc > result.val_accuracy) {
      result.val_accuracy = val_acc;
      result.best_epoch = epoch;
      result.probs = RowSoftmax(logits);
      epochs_since_best = 0;
    } else if (++epochs_since_best >= train_config.patience) {
      break;
    }
  }
  if (split.val.empty()) result.val_accuracy = -result.val_accuracy;
  if (!split.test.empty()) {
    result.test_accuracy = Accuracy(result.probs, graph.labels(), split.test);
  }
  result.train_seconds = watch.ElapsedSeconds();
  return result;
}

NodeTrainResult GridSearchTrain(const ModelConfig& model_config,
                                const Graph& graph, const DataSplit& split,
                                const TrainConfig& train_config,
                                const GridSearchSpace& space,
                                ModelConfig* best_model_config,
                                TrainConfig* best_train_config) {
  NodeTrainResult best;
  bool first = true;
  for (double lr : space.learning_rates) {
    for (double dropout : space.dropouts) {
      if (IsCancelled(train_config.cancel)) return best;
      ModelConfig mcfg = model_config;
      mcfg.dropout = dropout;
      TrainConfig tcfg = train_config;
      tcfg.learning_rate = lr;
      NodeTrainResult result =
          TrainSingleNodeModel(mcfg, graph, split, tcfg);
      if (first || result.val_accuracy > best.val_accuracy) {
        first = false;
        best = std::move(result);
        if (best_model_config != nullptr) *best_model_config = mcfg;
        if (best_train_config != nullptr) *best_train_config = tcfg;
      }
    }
  }
  return best;
}

}  // namespace ahg
