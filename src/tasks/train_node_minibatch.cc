#include "tasks/train_node_minibatch.h"

#include <algorithm>
#include <unordered_map>

#include "autodiff/ops.h"
#include "metrics/metrics.h"
#include "nn/linear.h"
#include "util/stopwatch.h"

namespace ahg {

SampledBatch SampleNeighborhoodBatch(const Graph& graph,
                                     const std::vector<int>& seeds, int hops,
                                     int fanout, Rng* rng) {
  AHG_CHECK(!seeds.empty());
  const SparseMatrix& adj = graph.Adjacency(AdjacencyKind::kRawSelfLoops);
  // Closure: BFS over sampled in-neighbors, seeds first so their subgraph
  // indices are 0..num_seeds-1.
  std::unordered_map<int, int> index_of;
  std::vector<int> node_map;
  auto add_node = [&](int node) {
    auto [it, inserted] =
        index_of.insert({node, static_cast<int>(node_map.size())});
    if (inserted) node_map.push_back(node);
    return it->second;
  };
  for (int seed : seeds) add_node(seed);
  std::vector<int> frontier = seeds;
  for (int hop = 0; hop < hops; ++hop) {
    std::vector<int> next;
    for (int node : frontier) {
      const int64_t begin = adj.row_ptr()[node];
      const int64_t degree = adj.row_ptr()[node + 1] - begin;
      if (degree <= fanout) {
        for (int64_t i = begin; i < begin + degree; ++i) {
          const int nbr = adj.col_idx()[i];
          if (index_of.find(nbr) == index_of.end()) next.push_back(nbr);
          add_node(nbr);
        }
      } else {
        for (int pick : rng->SampleWithoutReplacement(
                 static_cast<int>(degree), fanout)) {
          const int nbr = adj.col_idx()[begin + pick];
          if (index_of.find(nbr) == index_of.end()) next.push_back(nbr);
          add_node(nbr);
        }
      }
    }
    frontier = std::move(next);
    if (frontier.empty()) break;
  }

  // Induced subgraph on the closure; node_map order keeps seeds first, so
  // subgraph ids 0..num_seeds-1 are the seed rows.
  StatusOr<Graph> sub = graph.InducedSubgraph(node_map);
  AHG_CHECK_MSG(sub.ok(), sub.status().message());
  SampledBatch batch;
  batch.graph = std::move(sub).value();
  batch.node_map = std::move(node_map);
  batch.num_seeds = static_cast<int>(seeds.size());
  return batch;
}

NodeTrainResult TrainSingleNodeModelMinibatch(
    const ModelConfig& model_config, const Graph& graph,
    const DataSplit& split, const TrainConfig& train_config,
    const MinibatchConfig& minibatch_config) {
  Stopwatch watch;
  ModelConfig cfg = model_config;
  cfg.in_dim = graph.feature_dim();
  std::unique_ptr<GnnModel> model = BuildModel(cfg);
  Rng init_rng(cfg.seed ^ 0x9e3779b9ULL);
  Linear head(model->params(), cfg.hidden_dim, graph.num_classes(),
              /*bias=*/true, &init_rng);
  // One stream for the shuffle, the neighbor sampling and dropout.
  Rng rng(train_config.seed);

  const int batch_size = minibatch_config.batch_size;
  AHG_CHECK_GT(batch_size, 0);
  std::vector<int> train_nodes = split.train;
  const int num_batches =
      (static_cast<int>(train_nodes.size()) + batch_size - 1) / batch_size;
  // The step's batch and seed rows outlive its loss, through Backward.
  SampledBatch batch;
  std::vector<int> seed_idx;
  auto batch_loss = [&](int step) {
    if (step == 0) rng.Shuffle(&train_nodes);
    const size_t begin = static_cast<size_t>(step) * batch_size;
    const size_t end = std::min(train_nodes.size(), begin + batch_size);
    std::vector<int> seeds(train_nodes.begin() + begin,
                           train_nodes.begin() + end);
    batch = SampleNeighborhoodBatch(graph, seeds, cfg.num_layers,
                                    minibatch_config.fanout, &rng);
    // Loss on the seed rows (indices 0..num_seeds-1 by construction).
    seed_idx.resize(batch.num_seeds);
    for (int i = 0; i < batch.num_seeds; ++i) seed_idx[i] = i;
    GnnContext ctx{&batch.graph, /*training=*/true, &rng};
    Var x = MakeConstant(batch.graph.features());
    Var logits = head.Apply(model->LayerOutputs(ctx, x).back());
    return MaskedCrossEntropy(logits, batch.graph.labels(), seed_idx);
  };

  // Evaluation runs full-batch; without val rows the train rows stand in.
  const std::vector<int>& eval_nodes =
      split.val.empty() ? split.train : split.val;
  Var full_features = MakeConstant(graph.features());
  NodeTrainResult result;
  Matrix probs;
  const NodeTrainRun run = RunEpochs(
      model->params(), train_config, num_batches, batch_loss,
      [&] {
        GnnContext ctx{&graph, /*training=*/false, nullptr};
        probs = RowSoftmax(
            head.Apply(model->LayerOutputs(ctx, full_features).back())->value);
        return Accuracy(probs, graph.labels(), eval_nodes);
      },
      [&] { result.probs = std::move(probs); }, /*best_params=*/nullptr);
  result.val_accuracy = run.best_score;
  result.best_epoch = run.best_epoch;
  if (!split.test.empty()) {
    result.test_accuracy = Accuracy(result.probs, graph.labels(), split.test);
  }
  result.train_seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace ahg
