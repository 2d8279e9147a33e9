#include "serve/inference_engine.h"

#include <cstring>
#include <mutex>
#include <utility>

#include "autodiff/ops.h"
#include "graph/reorder.h"
#include "nn/linear.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/pool.h"
#include "util/string_util.h"

namespace ahg::serve {

Matrix ApplyClassifierHead(const Matrix& hidden_rows,
                           const ServableModel& model) {
  Matrix logits = MatMul(hidden_rows, model.head_weight());
  const Matrix& bias = model.head_bias();
  for (int r = 0; r < logits.rows(); ++r) {
    double* row = logits.Row(r);
    for (int c = 0; c < logits.cols(); ++c) row[c] += bias(0, c);
  }
  return RowSoftmax(logits);
}

namespace {

const Graph& NonNull(const Graph* graph) {
  AHG_CHECK(graph != nullptr);
  return *graph;
}

}  // namespace

ServingGraph::ServingGraph(const Graph* graph)
    : num_nodes_(NonNull(graph).num_nodes()),
      feature_dim_(graph->feature_dim()),
      perm_(graph->permutation_ptr()),
      borrowed_(graph) {}

ServingGraph::ServingGraph(int num_nodes, int feature_dim,
                           std::shared_ptr<const NodePermutation> perm,
                           std::function<Graph()> build)
    : num_nodes_(num_nodes),
      feature_dim_(feature_dim),
      perm_(std::move(perm)),
      build_(std::move(build)) {
  AHG_CHECK(build_ != nullptr);
}

const Graph& ServingGraph::Get() const {
  if (borrowed_ != nullptr) return *borrowed_;
  std::call_once(built_once_, [this] {
    AHG_TRACE_SPAN_ARG("serve/graph_build", num_nodes_);
    built_ = std::make_unique<const Graph>(build_());
    AHG_CHECK(built_->num_nodes() == num_nodes_ &&
              built_->feature_dim() == feature_dim_ &&
              built_->permutation() == perm_.get());
    static obs::Counter* const builds =
        obs::MetricsRegistry::Global().GetCounter("serve.graph_builds");
    builds->Increment();
  });
  return *built_;
}

InferenceEngine::InferenceEngine(const Graph* graph,
                                 const EngineOptions& options,
                                 ServeStats* stats)
    : graph_(std::make_shared<const ServingGraph>(graph)),
      own_cache_(options.cache_byte_budget),
      cache_(options.shared_cache != nullptr ? options.shared_cache
                                             : &own_cache_),
      scope_(options.cache_scope),
      stats_(stats),
      pooling_(options.pooling),
      fusion_(options.fusion) {
  AHG_CHECK(scope_.find('/') == std::string::npos);
}

StatusOr<InferenceEngine::Resolved> InferenceEngine::Resolve(
    const ServableModel& model) {
  // Covers the miss-path frozen forward; flags are thread-local, so this
  // applies on whichever request thread runs the compute.
  ScopedMemPlane mem_plane(pooling_, fusion_);
  // One (graph, generation) pin for the whole request: validation, id
  // translation and any miss-path forward all see the same graph, and a
  // concurrent SwapGraph retargets later requests, never this one. The hit
  // lookup shares the pin's lock, so it cannot miss on a generation a swap
  // retired between the two.
  Resolved out;
  uint64_t generation;
  std::string key;
  {
    std::shared_lock<std::shared_mutex> lock(graph_mu_);
    out.graph = graph_;
    generation = graph_generation_;
    if (model.config.in_dim != out.graph->feature_dim()) {
      return Status::InvalidArgument(StrFormat(
          "model consumes %d-dim features, serving graph has %d-dim",
          model.config.in_dim, out.graph->feature_dim()));
    }
    // Published versions are immutable and the generation pins the
    // topology, so (generation, version) identifies the propagation product.
    key = PropagationKey(GraphId(scope_, generation), model.version);
    out.hidden = cache_->Lookup(key);
  }
  bool computed = false;
  if (out.hidden == nullptr) {
    const ServingGraph* graph = out.graph.get();
    out.hidden = cache_->GetOrCompute(key, [graph, &model, &computed] {
      computed = true;
      const Graph& g = graph->Get();
      std::unique_ptr<GnnModel> zoo = BuildModel(model.config);
      std::vector<Matrix> weights(model.params.begin(),
                                  model.params.end() - 2);
      zoo->params()->Restore(weights);
      return zoo->ForwardInference(g, g.features());
    });
    if (computed) {
      // A swap that retired this generation mid-compute has already
      // invalidated its keys; drop the late entry rather than park it.
      std::shared_lock<std::shared_mutex> lock(graph_mu_);
      if (graph_generation_ != generation) cache_->Invalidate(key);
    }
  }
  if (obs::TracingEnabled()) {
    // Instant-style marker (the lookup itself is sub-microsecond); the
    // miss's compute cost shows up as the enclosed serve/cache_compute span.
    obs::TraceRecorder& recorder = obs::TraceRecorder::Instance();
    recorder.Emit(computed ? "serve/cache_miss" : "serve/cache_hit",
                  recorder.NowMicros(), 0, model.version);
  }
  if (stats_ != nullptr) {
    if (computed) {
      stats_->RecordCacheMiss();
    } else {
      stats_->RecordCacheHit();
    }
    stats_->SetCacheBytes(cache_->current_bytes());
  }
  return out;
}

StatusOr<Matrix> InferenceEngine::PredictNodes(const ServableModel& model,
                                               const std::vector<int>& nodes) {
  AHG_TRACE_SPAN_ARG("serve/predict_nodes",
                     static_cast<int64_t>(nodes.size()));
  ScopedMemPlane mem_plane(pooling_, fusion_);
  auto resolved = Resolve(model);
  if (!resolved.ok()) return resolved.status();
  const ServingGraph& graph = *resolved.value().graph;
  const Matrix& h = *resolved.value().hidden;
  for (int node : nodes) {
    if (node < 0 || node >= graph.num_nodes()) {
      return Status::InvalidArgument(StrFormat(
          "node id %d out of range [0, %d)", node, graph.num_nodes()));
    }
  }
  // Query ids are external; hidden rows live in the pinned graph's
  // (possibly reordered) internal order.
  Matrix rows(static_cast<int>(nodes.size()), h.cols());
  for (size_t i = 0; i < nodes.size(); ++i) {
    std::memcpy(rows.Row(static_cast<int>(i)),
                h.Row(ToInternalId(graph.permutation(), nodes[i])),
                static_cast<size_t>(h.cols()) * sizeof(double));
  }
  return ApplyClassifierHead(rows, model);
}

StatusOr<Matrix> InferenceEngine::PredictAll(const ServableModel& model) {
  ScopedMemPlane mem_plane(pooling_, fusion_);
  auto resolved = Resolve(model);
  if (!resolved.ok()) return resolved.status();
  Matrix probs = ApplyClassifierHead(*resolved.value().hidden, model);
  // Row order is an external contract: row e is node e's probabilities. On
  // a reordered graph, gather the internally ordered rows back out.
  const NodePermutation* perm = resolved.value().graph->permutation();
  if (perm != nullptr) probs = GatherRows(probs, perm->to_internal);
  return probs;
}

Status InferenceEngine::Warm(const ServableModel& model) {
  return Resolve(model).status();
}

Status InferenceEngine::SwapGraph(std::shared_ptr<const ServingGraph> graph,
                                  uint64_t generation, int seed_version,
                                  std::shared_ptr<const Matrix> seed_hidden) {
  if (graph == nullptr) {
    return Status::InvalidArgument("SwapGraph: null graph");
  }
  if (seed_hidden != nullptr && seed_hidden->rows() != graph->num_nodes()) {
    return Status::InvalidArgument(
        StrFormat("seeded hidden states have %d rows, graph has %d nodes",
                  seed_hidden->rows(), graph->num_nodes()));
  }
  {
    std::unique_lock<std::shared_mutex> lock(graph_mu_);
    if (generation <= graph_generation_) {
      return Status::InvalidArgument(
          StrFormat("SwapGraph: generation %lld not above current %lld",
                    static_cast<long long>(generation),
                    static_cast<long long>(graph_generation_)));
    }
    // Seed before the flip: no query can see the new generation without
    // its states. Products of the retired topology must never answer a new
    // query; in-flight requests keep what they resolved alive.
    if (seed_hidden != nullptr) {
      cache_->Put(PropagationKey(GraphId(scope_, generation), seed_version),
                  std::move(seed_hidden));
    }
    const uint64_t retired = graph_generation_;
    graph_.swap(graph);
    graph_generation_ = generation;
    cache_->InvalidateGraph(GraphId(scope_, retired));
  }
  // `graph` now holds the retired graph; unless a request still pins it, it
  // is freed here, outside the lock.
  graph.reset();
  if (obs::TracingEnabled()) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Instance();
    recorder.Emit("serve/graph_swap", recorder.NowMicros(), 0,
                  static_cast<int64_t>(generation));
  }
  if (stats_ != nullptr) stats_->SetCacheBytes(cache_->current_bytes());
  return Status::OK();
}

Status InferenceEngine::InstallHiddenStates(
    int version, std::shared_ptr<const Matrix> hidden) {
  if (hidden == nullptr) {
    return Status::InvalidArgument("InstallHiddenStates: null hidden states");
  }
  {
    // Held shared across the Put, so a concurrent swap cannot retire the
    // generation between the check and the insert.
    std::shared_lock<std::shared_mutex> lock(graph_mu_);
    if (hidden->rows() != graph_->num_nodes()) {
      return Status::InvalidArgument(
          StrFormat("hidden states have %d rows, serving graph has %d nodes",
                    hidden->rows(), graph_->num_nodes()));
    }
    cache_->Put(PropagationKey(GraphId(scope_, graph_generation_), version),
                std::move(hidden));
  }
  if (stats_ != nullptr) stats_->SetCacheBytes(cache_->current_bytes());
  return Status::OK();
}

uint64_t InferenceEngine::graph_generation() const {
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  return graph_generation_;
}

Matrix InferenceEngine::TrainingPathProbs(const ServableModel& model,
                                          const Graph& graph) {
  std::unique_ptr<GnnModel> zoo = BuildModel(model.config);
  Rng head_rng(model.config.seed ^ 0x5ca1ab1eULL);
  Linear head(zoo->params(), model.config.hidden_dim, model.num_classes,
              /*bias=*/true, &head_rng);
  zoo->params()->Restore(model.params);
  GnnContext ctx;
  ctx.graph = &graph;
  ctx.training = false;
  Var logits = head.Apply(zoo->LayerOutputs(ctx, MakeConstant(graph.features()))
                              .back());
  Matrix probs = RowSoftmax(logits->value);
  // Same external row contract as PredictAll.
  if (graph.permutation() != nullptr) {
    probs = GatherRows(probs, graph.permutation()->to_internal);
  }
  return probs;
}

}  // namespace ahg::serve
