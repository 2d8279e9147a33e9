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

NodeTrainRun RunEpochs(ParameterStore* params, const TrainConfig& train_config,
                       int steps_per_epoch,
                       const std::function<Var(int step)>& step_loss,
                       const std::function<double()>& eval_score,
                       const std::function<void()>& keep_best,
                       std::vector<Matrix>* best_params) {
  // Apply the per-config kernel-thread override for the duration of this
  // training run. Skipped inside a parallel region (proxy evaluation and a
  // job's final members train concurrently): kernels run inline there, and
  // mutating the global setting from worker threads would race.
  ScopedNumThreads scoped_threads(
      InParallelRegion() ? 0 : train_config.num_threads);
  AdamConfig adam_config;
  adam_config.learning_rate = train_config.learning_rate;
  adam_config.weight_decay = train_config.weight_decay;
  Adam optimizer(params->params(), adam_config);

  if (best_params != nullptr) *best_params = params->Snapshot();
  NodeTrainRun run;
  int epochs_since_best = 0;
  for (int epoch = 1; epoch <= train_config.max_epochs; ++epoch) {
    if (IsCancelled(train_config.cancel)) break;
    AHG_TRACE_SPAN_ARG("train/epoch", epoch);
    run.epochs = epoch;
    for (int step = 0; step < steps_per_epoch; ++step) {
      params->ZeroGrad();
      Backward(step_loss(step));
      optimizer.Step();
    }
    if (train_config.lr_decay_every > 0 &&
        epoch % train_config.lr_decay_every == 0) {
      optimizer.set_learning_rate(optimizer.learning_rate() *
                                  train_config.lr_decay);
    }

    // Evaluation off the tape.
    ScopedInferenceMode inference;
    const double score = eval_score();
    if (epoch == 1 || score > run.best_score) {
      run.best_score = score;
      run.best_epoch = epoch;
      keep_best();
      if (best_params != nullptr) *best_params = params->Snapshot();
      epochs_since_best = 0;
    } else if (++epochs_since_best >= train_config.patience) {
      break;
    }
  }
  return run;
}

NodeTrainRun RunNodeTraining(const ModelConfig& model_config, int num_classes,
                             uint64_t head_seed, const Graph& graph,
                             const DataSplit& split,
                             const TrainConfig& train_config,
                             Matrix* best_logits,
                             std::vector<Matrix>* best_params) {
  AHG_CHECK_GT(graph.feature_dim(), 0);
  AHG_CHECK_EQ(model_config.in_dim, graph.feature_dim());
  std::unique_ptr<GnnModel> model = BuildModel(model_config);
  Rng head_rng(head_seed);
  Linear head(model->params(), model_config.hidden_dim, num_classes,
              /*bias=*/true, &head_rng);

  Rng dropout_rng(train_config.seed);
  Var features = MakeConstant(graph.features());

  auto forward_logits = [&](bool training) {
    GnnContext ctx{&graph, training, &dropout_rng};
    return head.Apply(model->LayerOutputs(ctx, features).back());
  };

  // Validation reads only the val rows (the train rows when there are
  // none), and RowSoftmax and Accuracy are row-independent, so each epoch
  // takes the softmax of those rows alone.
  const std::vector<int>& eval_nodes =
      split.val.empty() ? split.train : split.val;
  std::vector<int> eval_labels, eval_rows;
  for (int node : eval_nodes) {
    eval_labels.push_back(graph.labels()[node]);
    eval_rows.push_back(static_cast<int>(eval_rows.size()));
  }

  Matrix logits;
  return RunEpochs(
      model->params(), train_config, /*steps_per_epoch=*/1,
      [&](int) {
        return MaskedCrossEntropy(forward_logits(true), graph.labels(),
                                  split.train);
      },
      [&] {
        logits = std::move(forward_logits(false)->value);
        return Accuracy(RowSoftmax(GatherRows(logits, eval_nodes)),
                        eval_labels, eval_rows);
      },
      [&] {
        if (best_logits != nullptr) *best_logits = std::move(logits);
      },
      best_params);
}

NodeTrainResult TrainSingleNodeModel(const ModelConfig& model_config,
                                     const Graph& graph,
                                     const DataSplit& split,
                                     const TrainConfig& train_config) {
  AHG_TRACE_SPAN("train/node_model");
  Stopwatch watch;
  ModelConfig cfg = model_config;
  cfg.in_dim = graph.feature_dim();
  Matrix best_logits;
  const NodeTrainRun run =
      RunNodeTraining(cfg, graph.num_classes(), cfg.seed ^ 0x9e3779b9ULL,
                      graph, split, train_config, &best_logits, nullptr);
  static obs::Counter* epochs_counter =
      obs::MetricsRegistry::Global().GetCounter("train.epochs");
  epochs_counter->Increment(run.epochs);

  NodeTrainResult result;
  result.probs = RowSoftmax(best_logits);
  result.val_accuracy = run.best_score;
  result.best_epoch = run.best_epoch;
  if (!split.test.empty()) {
    result.test_accuracy = Accuracy(result.probs, graph.labels(), split.test);
  }
  result.train_seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace ahg
