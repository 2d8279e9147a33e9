// Mini-batch training with neighbor sampling (the GraphSAGE protocol the
// zoo's SAGE models were designed for): each step samples a batch of
// training nodes plus a fanout-limited multi-hop neighborhood, builds the
// induced subgraph and takes one optimizer step on it. Evaluation runs
// full-batch on the whole graph. This trades per-step cost for more steps
// and bounds memory by the batch closure instead of the full graph — the
// scalability lever for graphs larger than the full-batch trainer handles.
#ifndef AUTOHENS_TASKS_TRAIN_NODE_MINIBATCH_H_
#define AUTOHENS_TASKS_TRAIN_NODE_MINIBATCH_H_

#include "graph/graph.h"
#include "graph/split.h"
#include "models/model.h"
#include "tasks/train_node.h"

namespace ahg {

struct MinibatchConfig {
  int batch_size = 256;
  // Maximum sampled in-neighbors per node per hop; hops = model depth.
  int fanout = 10;
};

// Same contract as TrainSingleNodeModel, but each epoch sweeps the training
// nodes in neighbor-sampled mini-batches, one optimizer step per batch,
// before the full-batch evaluation. Without val rows the train rows stand
// in: the kept epoch is the one of the best train accuracy, which
// `val_accuracy` then reports.
NodeTrainResult TrainSingleNodeModelMinibatch(
    const ModelConfig& model_config, const Graph& graph,
    const DataSplit& split, const TrainConfig& train_config,
    const MinibatchConfig& minibatch_config);

// Exposed for testing: samples the fanout-limited closure of `seeds` over
// `hops` hops of in-neighbors and returns the induced subgraph; the first
// seeds.size() nodes of the subgraph are the seeds in order.
struct SampledBatch {
  Graph graph;
  std::vector<int> node_map;  // subgraph index -> original index
  int num_seeds = 0;
};

SampledBatch SampleNeighborhoodBatch(const Graph& graph,
                                     const std::vector<int>& seeds, int hops,
                                     int fanout, Rng* rng);

}  // namespace ahg

#endif  // AUTOHENS_TASKS_TRAIN_NODE_MINIBATCH_H_
