// Per-layer timing without touching the program under test: the perfbench
// binary is linked with `-Wl,--wrap=<symbol>` for every public function
// below (CMakeLists.txt collects the symbols from this file), so each call
// the library makes into it — e.g. SearchJob::Run calling ProxyEvaluate —
// lands in a wrapper here that times the real function when the traced run
// has enabled the LayerRecorder, and is a plain forwarding call otherwise.
//
// A wrapper sees only calls that cross translation units (calls inside the
// function's own source file bypass it), and a function whose signature
// changes stops being wrapped. The untraced run still builds and measures;
// the traced run fails, naming the function, because each workload lists
// the layer functions it must reach (RequireLayerCalls).
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/proxy_eval.h"
#include "core/search_gradient.h"
#include "core/trained_ensemble.h"
#include "dyn/incremental.h"
#include "dyn/snapshot.h"
#include "dyn/stream_server.h"
#include "harness.h"
#include "jobs/job_store.h"
#include "partition/partitioned_engine.h"
#include "serve/model_registry.h"
#include "tasks/train_node.h"

namespace {

using perfbench::Clock;
using perfbench::LayerRecorder;

template <typename Call>
auto Timed(const char* layer_fn, Call&& call) {
  LayerRecorder& recorder = LayerRecorder::Instance();
  if (!recorder.enabled()) return call();
  const Clock::time_point start = Clock::now();
  auto result = call();
  recorder.Record(layer_fn, start, Clock::now());
  return result;
}

}  // namespace

// Each block declares the real function under its `__real_` alias (weak, so
// a symbol the library no longer defines leaves the link intact) and defines
// the `__wrap_` replacement. Member functions take `this` as their first
// parameter, which is how the Itanium C++ ABI passes it.
#define PERFBENCH_REAL(sym) __asm__("__real_" sym) __attribute__((weak))
#define PERFBENCH_WRAP(sym) __asm__("__wrap_" sym)

// --- core ---
#define SYM "_ZN3ahg13ProxyEvaluateERKSt6vectorINS_13CandidateSpecESaIS1_EERKNS_5GraphERKNS_11ProxyConfigEm"
ahg::ProxyEvalResult RealProxyEvaluate(const std::vector<ahg::CandidateSpec>&,
                                       const ahg::Graph&,
                                       const ahg::ProxyConfig&, uint64_t)
    PERFBENCH_REAL(SYM);
ahg::ProxyEvalResult WrapProxyEvaluate(
    const std::vector<ahg::CandidateSpec>& pool, const ahg::Graph& graph,
    const ahg::ProxyConfig& config, uint64_t seed) PERFBENCH_WRAP(SYM);
ahg::ProxyEvalResult WrapProxyEvaluate(
    const std::vector<ahg::CandidateSpec>& pool, const ahg::Graph& graph,
    const ahg::ProxyConfig& config, uint64_t seed) {
  return Timed("core.proxy_eval",
               [&] { return RealProxyEvaluate(pool, graph, config, seed); });
}
#undef SYM

#define SYM "_ZN3ahg14SearchGradientERKSt6vectorINS_13CandidateSpecESaIS1_EERKNS_5GraphERKNS_9DataSplitERKNS_20GradientSearchConfigE"
ahg::GradientSearchResult RealSearchGradient(
    const std::vector<ahg::CandidateSpec>&, const ahg::Graph&,
    const ahg::DataSplit&, const ahg::GradientSearchConfig&)
    PERFBENCH_REAL(SYM);
ahg::GradientSearchResult WrapSearchGradient(
    const std::vector<ahg::CandidateSpec>& pool, const ahg::Graph& graph,
    const ahg::DataSplit& split, const ahg::GradientSearchConfig& config)
    PERFBENCH_WRAP(SYM);
ahg::GradientSearchResult WrapSearchGradient(
    const std::vector<ahg::CandidateSpec>& pool, const ahg::Graph& graph,
    const ahg::DataSplit& split, const ahg::GradientSearchConfig& config) {
  return Timed("core.search_gradient",
               [&] { return RealSearchGradient(pool, graph, split, config); });
}
#undef SYM

#define SYM "_ZN3ahg15TrainedEnsemble11TrainMemberERKNS_10MemberSpecERKNS_5GraphERKNS_9DataSplitE"
std::vector<ahg::Matrix> RealTrainMember(const ahg::MemberSpec&,
                                         const ahg::Graph&,
                                         const ahg::DataSplit&)
    PERFBENCH_REAL(SYM);
std::vector<ahg::Matrix> WrapTrainMember(const ahg::MemberSpec& spec,
                                         const ahg::Graph& graph,
                                         const ahg::DataSplit& split)
    PERFBENCH_WRAP(SYM);
std::vector<ahg::Matrix> WrapTrainMember(const ahg::MemberSpec& spec,
                                         const ahg::Graph& graph,
                                         const ahg::DataSplit& split) {
  return Timed("core.final_train",
               [&] { return RealTrainMember(spec, graph, split); });
}
#undef SYM

// --- tasks ---
#define SYM "_ZN3ahg20TrainSingleNodeModelERKNS_11ModelConfigERKNS_5GraphERKNS_9DataSplitERKNS_11TrainConfigE"
ahg::NodeTrainResult RealTrainSingleNodeModel(const ahg::ModelConfig&,
                                              const ahg::Graph&,
                                              const ahg::DataSplit&,
                                              const ahg::TrainConfig&)
    PERFBENCH_REAL(SYM);
ahg::NodeTrainResult WrapTrainSingleNodeModel(
    const ahg::ModelConfig& model, const ahg::Graph& graph,
    const ahg::DataSplit& split, const ahg::TrainConfig& train)
    PERFBENCH_WRAP(SYM);
ahg::NodeTrainResult WrapTrainSingleNodeModel(
    const ahg::ModelConfig& model, const ahg::Graph& graph,
    const ahg::DataSplit& split, const ahg::TrainConfig& train) {
  return Timed("tasks.train_node", [&] {
    return RealTrainSingleNodeModel(model, graph, split, train);
  });
}
#undef SYM

// --- jobs ---
#define SYM "_ZNK3ahg4jobs8JobStore17SaveJobCheckpointERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS0_19SearchJobCheckpointE"
ahg::Status RealSaveJobCheckpoint(const ahg::jobs::JobStore*,
                                  const std::string&,
                                  const ahg::jobs::SearchJobCheckpoint&)
    PERFBENCH_REAL(SYM);
ahg::Status WrapSaveJobCheckpoint(
    const ahg::jobs::JobStore* self, const std::string& job_id,
    const ahg::jobs::SearchJobCheckpoint& checkpoint) PERFBENCH_WRAP(SYM);
ahg::Status WrapSaveJobCheckpoint(
    const ahg::jobs::JobStore* self, const std::string& job_id,
    const ahg::jobs::SearchJobCheckpoint& checkpoint) {
  return Timed("jobs.checkpoint", [&] {
    return RealSaveJobCheckpoint(self, job_id, checkpoint);
  });
}
#undef SYM

#define SYM "_ZN3ahg5serve13ModelRegistry7PublishERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEiRKNS_11ModelConfigERKSt6vectorINS_6MatrixESaISE_EEi"
ahg::Status RealPublish(const std::string&, int, const ahg::ModelConfig&,
                        const std::vector<ahg::Matrix>&, int)
    PERFBENCH_REAL(SYM);
ahg::Status WrapPublish(const std::string& dir, int version,
                        const ahg::ModelConfig& config,
                        const std::vector<ahg::Matrix>& params,
                        int num_classes) PERFBENCH_WRAP(SYM);
ahg::Status WrapPublish(const std::string& dir, int version,
                        const ahg::ModelConfig& config,
                        const std::vector<ahg::Matrix>& params,
                        int num_classes) {
  return Timed("jobs.publish", [&] {
    return RealPublish(dir, version, config, params, num_classes);
  });
}
#undef SYM

// --- dyn / graph ---
#define SYM "_ZNK3ahg3dyn13GraphSnapshot5ApplyERKSt6vectorINS0_8MutationESaIS3_EE"
using ApplyResult =
    ahg::StatusOr<std::pair<ahg::dyn::GraphSnapshot, ahg::dyn::BatchDelta>>;
ApplyResult RealApply(const ahg::dyn::GraphSnapshot*,
                      const std::vector<ahg::dyn::Mutation>&)
    PERFBENCH_REAL(SYM);
ApplyResult WrapApply(const ahg::dyn::GraphSnapshot* self,
                      const std::vector<ahg::dyn::Mutation>& batch)
    PERFBENCH_WRAP(SYM);
ApplyResult WrapApply(const ahg::dyn::GraphSnapshot* self,
                      const std::vector<ahg::dyn::Mutation>& batch) {
  return Timed("dyn.apply", [&] { return RealApply(self, batch); });
}
#undef SYM

#define SYM "_ZN3ahg3dyn21IncrementalPropagator7RefreshERKNS0_13GraphSnapshotERKNS0_10BatchDeltaE"
ahg::StatusOr<ahg::dyn::RefreshStats> RealRefresh(
    ahg::dyn::IncrementalPropagator*, const ahg::dyn::GraphSnapshot&,
    const ahg::dyn::BatchDelta&) PERFBENCH_REAL(SYM);
ahg::StatusOr<ahg::dyn::RefreshStats> WrapRefresh(
    ahg::dyn::IncrementalPropagator* self, const ahg::dyn::GraphSnapshot& snap,
    const ahg::dyn::BatchDelta& delta) PERFBENCH_WRAP(SYM);
ahg::StatusOr<ahg::dyn::RefreshStats> WrapRefresh(
    ahg::dyn::IncrementalPropagator* self, const ahg::dyn::GraphSnapshot& snap,
    const ahg::dyn::BatchDelta& delta) {
  return Timed("dyn.refresh", [&] { return RealRefresh(self, snap, delta); });
}
#undef SYM

#define SYM "_ZN3ahg3dyn15StreamingServer9PublishToEPNS_5serve15InferenceEngineE"
ahg::Status RealPublishTo(ahg::dyn::StreamingServer*,
                          ahg::serve::InferenceEngine*) PERFBENCH_REAL(SYM);
ahg::Status WrapPublishTo(ahg::dyn::StreamingServer* self,
                          ahg::serve::InferenceEngine* engine)
    PERFBENCH_WRAP(SYM);
ahg::Status WrapPublishTo(ahg::dyn::StreamingServer* self,
                          ahg::serve::InferenceEngine* engine) {
  return Timed("dyn.publish", [&] { return RealPublishTo(self, engine); });
}
#undef SYM

#define SYM "_ZNK3ahg3dyn13GraphSnapshot9ReorderedENS_15ReorderStrategyEm"
ahg::dyn::ReorderResult RealReordered(const ahg::dyn::GraphSnapshot*,
                                      ahg::ReorderStrategy, uint64_t)
    PERFBENCH_REAL(SYM);
ahg::dyn::ReorderResult WrapReordered(const ahg::dyn::GraphSnapshot* self,
                                      ahg::ReorderStrategy strategy,
                                      uint64_t seed) PERFBENCH_WRAP(SYM);
ahg::dyn::ReorderResult WrapReordered(const ahg::dyn::GraphSnapshot* self,
                                      ahg::ReorderStrategy strategy,
                                      uint64_t seed) {
  return Timed("graph.reorder",
               [&] { return RealReordered(self, strategy, seed); });
}
#undef SYM

// --- partition ---
#define SYM "_ZN3ahg9partition17PartitionedEngine6CreateERKNS_5GraphEiRKNS1_7OptionsE"
using CreateResult =
    ahg::StatusOr<std::unique_ptr<ahg::partition::PartitionedEngine>>;
CreateResult RealCreate(const ahg::Graph&, int,
                        const ahg::partition::PartitionedEngine::Options&)
    PERFBENCH_REAL(SYM);
CreateResult WrapCreate(
    const ahg::Graph& graph, int num_parts,
    const ahg::partition::PartitionedEngine::Options& options)
    PERFBENCH_WRAP(SYM);
CreateResult WrapCreate(
    const ahg::Graph& graph, int num_parts,
    const ahg::partition::PartitionedEngine::Options& options) {
  return Timed("partition.create",
               [&] { return RealCreate(graph, num_parts, options); });
}
#undef SYM

#define SYM "_ZN3ahg9partition17PartitionedEngine4WarmERKNS_5serve13ServableModelE"
ahg::Status RealWarm(ahg::partition::PartitionedEngine*,
                     const ahg::serve::ServableModel&) PERFBENCH_REAL(SYM);
ahg::Status WrapWarm(ahg::partition::PartitionedEngine* self,
                     const ahg::serve::ServableModel& model)
    PERFBENCH_WRAP(SYM);
ahg::Status WrapWarm(ahg::partition::PartitionedEngine* self,
                     const ahg::serve::ServableModel& model) {
  return Timed("partition.warm", [&] { return RealWarm(self, model); });
}
#undef SYM

#define SYM "_ZN3ahg9partition17PartitionedEngine10ApplyDeltaERKNS_3dyn13GraphSnapshotERKNS2_10BatchDeltaE"
ahg::Status RealApplyDelta(ahg::partition::PartitionedEngine*,
                           const ahg::dyn::GraphSnapshot&,
                           const ahg::dyn::BatchDelta&) PERFBENCH_REAL(SYM);
ahg::Status WrapApplyDelta(ahg::partition::PartitionedEngine* self,
                           const ahg::dyn::GraphSnapshot& snap,
                           const ahg::dyn::BatchDelta& delta)
    PERFBENCH_WRAP(SYM);
ahg::Status WrapApplyDelta(ahg::partition::PartitionedEngine* self,
                           const ahg::dyn::GraphSnapshot& snap,
                           const ahg::dyn::BatchDelta& delta) {
  return Timed("partition.apply_delta",
               [&] { return RealApplyDelta(self, snap, delta); });
}
#undef SYM
