#include "core/search_gradient.h"

#include <memory>

#include "autodiff/ops.h"
#include "core/gse.h"
#include "metrics/metrics.h"
#include "nn/optimizer.h"
#include "obs/trace.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace ahg {

GradientSearchResult SearchGradient(const std::vector<CandidateSpec>& pool,
                                    const Graph& graph,
                                    const DataSplit& split,
                                    const GradientSearchConfig& config) {
  AHG_CHECK(!pool.empty());
  AHG_TRACE_SPAN_ARG("search/gradient", static_cast<int64_t>(pool.size()));
  Stopwatch watch;
  const int n = static_cast<int>(pool.size());

  std::vector<std::unique_ptr<GraphSelfEnsemble>> ensembles;
  std::vector<Var> weight_params;
  std::vector<Var> arch_params;
  for (int j = 0; j < n; ++j) {
    auto gse = std::make_unique<GraphSelfEnsemble>(
        pool[j].config, config.k, graph.feature_dim(), graph.num_classes(),
        config.seed + static_cast<uint64_t>(j) * 1000,
        /*trainable_alpha=*/true);
    for (const Var& p : gse->WeightParams()) weight_params.push_back(p);
    for (const Var& p : gse->AlphaParams()) arch_params.push_back(p);
    ensembles.push_back(std::move(gse));
  }
  Var beta_raw = MakeParam(Matrix(1, n));
  arch_params.push_back(beta_raw);

  AdamConfig weight_cfg;
  weight_cfg.learning_rate = config.train.learning_rate;
  weight_cfg.weight_decay = config.train.weight_decay;
  Adam weight_optimizer(weight_params, weight_cfg);
  AdamConfig arch_cfg;
  arch_cfg.learning_rate = config.arch_learning_rate;
  arch_cfg.weight_decay = 0.0;
  Adam arch_optimizer(arch_params, arch_cfg);

  Rng dropout_rng(config.seed ^ 0x77aa55ULL);
  Var features = MakeConstant(graph.features());

  // Combined prediction of Eqn 4: sum_j beta_j * GSE_j probabilities. The
  // training forwards draw their dropout masks from one shared stream in
  // ensemble order, so they run serially.
  auto train_probs = [&] {
    GnnContext ctx;
    ctx.graph = &graph;
    ctx.training = true;
    ctx.rng = &dropout_rng;
    std::vector<Var> per_model;
    per_model.reserve(ensembles.size());
    for (auto& gse : ensembles) per_model.push_back(gse->Probs(ctx, features));
    return SoftmaxWeightedSum(per_model, beta_raw);
  };
  // The eval forward draws nothing (its context has no rng, so a draw would
  // fail loudly), so each self-ensemble runs in its own task. Inference mode
  // is thread-local: each task takes its own.
  auto eval_probs = [&] {
    const GnnContext ctx{&graph, /*training=*/false, /*rng=*/nullptr};
    std::vector<Var> per_model(ensembles.size());
    ParallelFor(n, config.num_threads, [&](int j) {
      ScopedInferenceMode inference;
      per_model[j] = ensembles[j]->Probs(ctx, features);
    });
    ScopedInferenceMode inference;
    return std::move(SoftmaxWeightedSum(per_model, beta_raw)->value);
  };
  auto zero_grads = [&] {
    for (const Var& p : weight_params) p->ZeroGrad();
    for (const Var& p : arch_params) p->ZeroGrad();
  };

  GradientSearchResult result;
  Matrix best_beta_raw = beta_raw->value;
  std::vector<Matrix> best_alphas;
  double best_val = -1.0;
  int epochs_since_best = 0;
  int start_epoch = 1;
  if (config.resume != nullptr) {
    const GradientSearchState& st = *config.resume;
    AHG_CHECK_EQ(static_cast<int>(st.weight_values.size()),
                 static_cast<int>(weight_params.size()));
    AHG_CHECK_EQ(static_cast<int>(st.arch_values.size()),
                 static_cast<int>(arch_params.size()));
    for (size_t i = 0; i < weight_params.size(); ++i) {
      weight_params[i]->value = st.weight_values[i];
    }
    for (size_t i = 0; i < arch_params.size(); ++i) {
      arch_params[i]->value = st.arch_values[i];
    }
    weight_optimizer.RestoreState(st.weight_opt);
    arch_optimizer.RestoreState(st.arch_opt);
    dropout_rng.RestoreState(st.dropout_rng);
    best_val = st.best_val;
    best_beta_raw = st.best_beta_raw;
    best_alphas = st.best_alphas;
    epochs_since_best = st.epochs_since_best;
    start_epoch = st.epoch + 1;
  }
  auto snapshot = [&](int epochs_done) {
    GradientSearchState st;
    st.epoch = epochs_done;
    st.weight_values.reserve(weight_params.size());
    for (const Var& p : weight_params) st.weight_values.push_back(p->value);
    st.arch_values.reserve(arch_params.size());
    for (const Var& p : arch_params) st.arch_values.push_back(p->value);
    st.weight_opt = weight_optimizer.ExportState();
    st.arch_opt = arch_optimizer.ExportState();
    st.dropout_rng = dropout_rng.ExportState();
    st.best_val = best_val;
    st.best_beta_raw = best_beta_raw;
    st.best_alphas = best_alphas;
    st.epochs_since_best = epochs_since_best;
    return st;
  };
  for (int epoch = start_epoch; epoch <= config.max_epochs; ++epoch) {
    if (IsCancelled(config.cancel)) {
      result.interrupted = true;
      result.search_seconds = watch.ElapsedSeconds();
      return result;
    }
    // Weight step on the training loss (Algorithm 1, line 5).
    zero_grads();
    Backward(MaskedNllFromProbs(train_probs(), graph.labels(), split.train));
    weight_optimizer.Step();

    // Architecture step on the validation loss (lines 6-9).
    if (epoch % config.update_every == 0) {
      zero_grads();
      Backward(MaskedNllFromProbs(train_probs(), graph.labels(), split.val));
      arch_optimizer.Step();
    }

    const double val_acc = Accuracy(eval_probs(), graph.labels(), split.val);
    if (val_acc > best_val) {
      best_val = val_acc;
      best_beta_raw = beta_raw->value;
      best_alphas.clear();
      for (auto& gse : ensembles) {
        for (const Var& a : gse->AlphaParams()) best_alphas.push_back(a->value);
      }
      epochs_since_best = 0;
    } else if (++epochs_since_best >= config.patience) {
      break;
    }
    if (config.checkpoint_every > 0 && config.on_checkpoint &&
        epoch % config.checkpoint_every == 0) {
      config.on_checkpoint(snapshot(epoch));
    }
  }

  // Restore the best-epoch architecture before discretizing.
  beta_raw->value = best_beta_raw;
  {
    size_t idx = 0;
    for (auto& gse : ensembles) {
      for (const Var& a : gse->AlphaParams()) {
        if (idx < best_alphas.size()) a->value = best_alphas[idx++];
      }
    }
  }

  result.val_accuracy = best_val;
  for (auto& gse : ensembles) result.layers.push_back(gse->SelectedLayers());
  const Matrix beta = RowSoftmax(beta_raw->value);
  result.beta.resize(n);
  for (int j = 0; j < n; ++j) result.beta[j] = beta(0, j);
  result.search_seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace ahg
