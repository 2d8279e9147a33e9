// Frozen-model inference over one serving graph.
//
// The engine answers node-classification queries against ServableModels
// from a ModelRegistry. Per (graph, model-version) pair it runs the frozen
// forward (GnnModel::ForwardInference: eval mode, tape disabled) exactly
// once and parks the final hidden states H^(L) (num_nodes x hidden_dim) in
// a PropagationCache; a query then gathers the requested rows and applies
// the classifier head — dense lookup + MLP instead of a full-graph SpMM
// stack. Because every kernel on both paths is deterministic across thread
// counts (see README "Threading model") and each output row depends only on
// its own input row, served probabilities are bitwise identical to the
// training-path eval forward regardless of batching or thread count.
#ifndef AUTOHENS_SERVE_INFERENCE_ENGINE_H_
#define AUTOHENS_SERVE_INFERENCE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "graph/graph.h"
#include "serve/model_registry.h"
#include "serve/node_predictor.h"
#include "serve/propagation_cache.h"
#include "serve/serve_stats.h"
#include "util/status.h"

namespace ahg::serve {

// Classifier head used at training time: softmax(H W + b), applied with the
// same kernels and accumulation order as nn/Linear + RowSoftmax, so a
// gathered batch reproduces the training-path rows bitwise (each output row
// depends only on its own input row). Shared by the static engine and the
// dynamic-graph streaming server.
Matrix ApplyClassifierHead(const Matrix& hidden_rows,
                           const ServableModel& model);

struct EngineOptions {
  // LRU budget for cached propagation products; <= 0 means unbounded.
  // Ignored when `shared_cache` is set.
  int64_t cache_byte_budget = int64_t{256} << 20;
  // Recycle per-request tensor buffers (gathered rows, head outputs, cache
  // recomputes) through the MatrixPool (tensor/pool.h). The pool stays warm
  // across requests — no arena trim on the serving path — so steady-state
  // queries allocate nothing. Bitwise-neutral.
  bool pooling = false;
  // Fused kernels on the frozen forward + head path. Bitwise-neutral.
  bool fusion = false;
  // When set, the engine caches its propagation products here instead of in
  // a private cache — the fabric points every tenant engine of a shard at
  // one cache so the shard has a single LRU byte budget. Must outlive the
  // engine. Engines sharing a cache MUST carry distinct `cache_scope`s:
  // generations are per-engine counters, so without a scope two tenant
  // graphs at the same (generation, model-version) pair collide on the key
  // and one tenant is served the other's hidden states.
  PropagationCache* shared_cache = nullptr;
  // Stable graph/tenant id folded into every cache key (and into
  // InvalidateGraph on swap). Empty keeps the historical "g<gen>" keys for
  // single-tenant engines. Must not contain '/'.
  std::string cache_scope;
};

// The graph an engine serves, as the engine's requests see it: node count,
// feature width and the external -> internal id permutation are known up
// front, while the Graph itself — which only a cache-miss forward needs —
// is either borrowed from a caller or built at most once, on the first
// Get(). The streaming server publishes every snapshot this way, so a
// publish whose hidden states are seeded into the cache builds nothing.
// Immutable once constructed; Get() is thread-safe.
class ServingGraph {
 public:
  // Borrows `graph`, which must outlive every holder of this object.
  explicit ServingGraph(const Graph* graph);

  // Lazy: `build` runs on the first Get() and must return a graph with
  // `num_nodes` nodes, `feature_dim`-wide features and permutation `perm`
  // (null = identity layout). Each build bumps the `serve.graph_builds`
  // counter.
  ServingGraph(int num_nodes, int feature_dim,
               std::shared_ptr<const NodePermutation> perm,
               std::function<Graph()> build);

  ServingGraph(const ServingGraph&) = delete;
  ServingGraph& operator=(const ServingGraph&) = delete;

  int num_nodes() const { return num_nodes_; }
  int feature_dim() const { return feature_dim_; }
  const NodePermutation* permutation() const { return perm_.get(); }

  const Graph& Get() const;

 private:
  const int num_nodes_;
  const int feature_dim_;
  const std::shared_ptr<const NodePermutation> perm_;
  const std::function<Graph()> build_;
  const Graph* const borrowed_ = nullptr;
  mutable std::once_flag built_once_;
  mutable std::unique_ptr<const Graph> built_;
};

class InferenceEngine : public NodePredictor {
 public:
  // Serves `graph` at generation 0. It is borrowed: it must outlive the
  // engine, or at least the first SwapGraph and every request started
  // before that swap.
  // `stats` is optional; when set, cache hits/misses and the pinned byte
  // count are reported there.
  InferenceEngine(const Graph* graph, const EngineOptions& options,
                  ServeStats* stats = nullptr);

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  // Class probabilities for `nodes` (rows in input order, num_classes
  // columns). InvalidArgument on an out-of-range node id or a model whose
  // in_dim does not match the graph.
  StatusOr<Matrix> PredictNodes(const ServableModel& model,
                                const std::vector<int>& nodes) override;

  // Full-graph probabilities through the same cached path.
  StatusOr<Matrix> PredictAll(const ServableModel& model);

  // Forces the propagation product for `model` into the cache (cache-warm
  // startup) without computing head outputs.
  Status Warm(const ServableModel& model);

  // Atomically retargets the engine at a new serving graph (a published
  // dynamic-graph snapshot) and invalidates every cached product of the old
  // generation. `generation` must be strictly greater than the current one.
  // When `seed_hidden` is set (num_nodes x hidden_dim for `graph`), it is
  // cached as (generation, `seed_version`)'s product before the flip, so no
  // query ever sees the new generation without it. Each request pins the
  // (graph, generation) pair once: in-flight requests finish against the
  // graph they started on, which is freed when the last of them returns.
  Status SwapGraph(std::shared_ptr<const ServingGraph> graph,
                   uint64_t generation, int seed_version = 0,
                   std::shared_ptr<const Matrix> seed_hidden = nullptr);

  // Seeds the cache for (current generation, `version`) with hidden states
  // computed elsewhere — the dynamic path installs its incrementally
  // patched H^(L) here so a query pays a row gather, not a full forward.
  // `hidden` must be num_nodes x hidden_dim for the current graph.
  Status InstallHiddenStates(int version,
                             std::shared_ptr<const Matrix> hidden);

  // Graph generation used in cache keys (0 until the first SwapGraph).
  uint64_t graph_generation() const;

  // The cache this engine resolves against: the shared one when
  // EngineOptions::shared_cache was set, the private one otherwise.
  const PropagationCache& cache() const { return *cache_; }

  // Comparator/baseline: rebuilds the autodiff model + head and runs the
  // tape-building eval forward over the whole graph (exactly what training
  // validation computes). This is the "naive per-query" cost a query would
  // pay without the serving layer.
  static Matrix TrainingPathProbs(const ServableModel& model,
                                  const Graph& graph);

 private:
  // One request's view: the graph it pinned and the cached H^(L) for
  // (that graph's generation, model.version), in the graph's internal order.
  struct Resolved {
    std::shared_ptr<const ServingGraph> graph;
    std::shared_ptr<const Matrix> hidden;
  };
  StatusOr<Resolved> Resolve(const ServableModel& model);

  // Guards the (graph, generation) pair. Queries hold it shared only to pin
  // the pair and look the product up, so a swap never blocks behind a
  // batch's compute, and a swap's invalidation never lands between a
  // query's pin and its cache lookup.
  mutable std::shared_mutex graph_mu_;
  std::shared_ptr<const ServingGraph> graph_;
  uint64_t graph_generation_ = 0;
  PropagationCache own_cache_;
  PropagationCache* const cache_;  // &own_cache_ or options.shared_cache
  const std::string scope_;        // options.cache_scope
  ServeStats* const stats_;
  const bool pooling_;
  const bool fusion_;
};

}  // namespace ahg::serve

#endif  // AUTOHENS_SERVE_INFERENCE_ENGINE_H_
