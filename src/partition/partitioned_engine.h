// Inference over a K-part PartitionPlan with bitwise conformance to the
// lone InferenceEngine.
//
// Memory is the point: each part holds only its owned nodes plus a halo
// appendix — features, local adjacency, and per-version layer states all
// scale ~1/K + halo overhead instead of K full replicas (bench/
// partition_scale proves the bound with AllocTracker). Compute runs the
// same per-row kernels as the single engine: every part drives the GCN/SGC
// stage core (dyn/stages.h) — the one the incremental propagator drives
// over a whole snapshot — over its owned rows, and after each stage the
// boundary rows cross the HaloExchange in a fixed merge order. Because
// every local column carries its global node's rank and every local row
// keeps the global row's stored entry order (see plan.h), the subset-exact
// kernels reproduce the global rows bitwise whatever the local numbering,
// and a query answered here is memcmp-identical to the lone engine — the
// conformance matrix partition_test asserts across synthetic families,
// part counts, and thread counts.
//
// Families: the ones dyn::StageCore::Supports admits (kGcn, kSgc).
// Everything else, and layer tensors of the wrong count or shape, is
// rejected with InvalidArgument — callers fall back to the replicated path.
//
// Dynamic graphs: ApplyDelta routes a mutation batch through the plan —
// adjacency rows are patched copy-on-write on their owning part, new nodes
// are appended to the least-loaded part, new halo dependencies are
// appended to the consumer part's locals, and each resident model version
// is refreshed by the stage core's dirty-level loop
// (dyn::StageCore::RefreshDirty) with per-stage dirty halo exchange. Local
// numbering is append-only, so a batch never renumbers or moves a part.
// The resident matrices (features, per-version states) and the local CSR
// shape grow in fixed row blocks; rows past num_local() are unused slack.
// Orphaned halo rows (references removed by edge deletions) live for the
// engine's lifetime: at most one row per new cut endpoint.
#ifndef AUTOHENS_PARTITION_PARTITIONED_ENGINE_H_
#define AUTOHENS_PARTITION_PARTITIONED_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "dyn/snapshot.h"
#include "dyn/stages.h"
#include "graph/graph.h"
#include "partition/halo_exchange.h"
#include "partition/plan.h"
#include "serve/model_registry.h"
#include "serve/node_predictor.h"
#include "util/status.h"

namespace ahg::partition {

class PartitionedEngine : public serve::NodePredictor {
 public:
  struct Options {
    PartitionerOptions partitioner;
  };

  // Builds the plan for `graph` and gathers per-part features. The graph
  // must carry features and outlives nothing — all state is copied into
  // the parts (that is the product: no full replica is retained).
  static StatusOr<std::unique_ptr<PartitionedEngine>> Create(
      const Graph& graph, int num_parts, const Options& options = {});

  // Same, over a pre-built plan (tests, external assignments).
  static StatusOr<std::unique_ptr<PartitionedEngine>> CreateFromPlan(
      const Graph& graph, PartitionPlan plan);

  // Class probabilities for `nodes` (rows in input order): each node is
  // resolved to its owning part, the final-stage hidden row is gathered,
  // and the classifier head applied — bitwise identical to the lone
  // engine's answer. Warms the version on first use.
  StatusOr<Matrix> PredictNodes(const serve::ServableModel& model,
                                const std::vector<int>& nodes) override;

  // Computes and parks all layer states for `model` (rollout warm-up).
  Status Warm(const serve::ServableModel& model);

  // Applies one mutation step: `delta` must describe snapshot_version() ->
  // snap.version(). Refreshes every warmed model version incrementally
  // (full per-part recompute when the dirty fraction exceeds
  // dyn::kFullRefreshFraction).
  Status ApplyDelta(const dyn::GraphSnapshot& snap,
                    const dyn::BatchDelta& delta);

  // Part owning external node id `node` (InvalidArgument when out of
  // range). Safe beside ApplyDelta; serving routes through this, never
  // through plan().
  StatusOr<int> OwnerOf(int node) const;

  // Unsynchronized: read it only while no ApplyDelta can run.
  const PartitionPlan& plan() const { return plan_; }
  int num_parts() const { return plan_.num_parts; }
  // Snapshot version the parts currently reflect (0 = the Create graph).
  uint64_t snapshot_version() const;
  int64_t rows_exchanged() const;

  // Analytic resident bytes of part p: features + local CSR + all warmed
  // layer states. The bench cross-checks this against AllocTracker deltas.
  int64_t PartResidentBytes(int p) const;

 private:
  // Per warmed model version: the stage core (config + layer params, head
  // excluded) and states[part][s - 1], the part-local matrix of stage s
  // (stage 1 reads the part's feature matrix).
  struct VersionState {
    dyn::StageCore core;
    std::vector<std::vector<Matrix>> states;
  };

  PartitionedEngine(PartitionPlan plan, const Graph& graph);

  bool HasHalo() const;

  Status WarmLocked(const serve::ServableModel& model);
  // Recomputes every stage of `vs` from the current features/adjacency.
  void RecomputeLocked(VersionState* vs);
  // Computes stage s of `vs` on every part, then exchanges its boundary
  // rows. `level` (ascending global ids) limits the compute to its owned
  // rows and the exchange to level ∪ `forced`; null means every owned row
  // and the whole boundary.
  void RunStageLocked(VersionState* vs, int s, const std::vector<int>* level,
                      const std::vector<int>& forced);
  // Internal id of external node id `node`, or InvalidArgument.
  StatusOr<int> InternalIdLocked(int node) const;
  StatusOr<Matrix> GatherAndHead(const VersionState& vs,
                                 const serve::ServableModel& model,
                                 const std::vector<int>& nodes) const;
  void ExportMetricsLocked() const;

  mutable std::shared_mutex mu_;
  PartitionPlan plan_;
  HaloExchange exchange_;
  // Locality permutation of the Create graph (null when unreordered). Plan
  // "global" ids are INTERNAL ids; query node ids are external and translate
  // here. Nodes appended by ApplyDelta map to themselves (identity tail),
  // matching GraphSnapshot's ExtendedTo convention.
  std::shared_ptr<const NodePermutation> perm_;
  int feature_dim_ = 0;
  int num_classes_ = 0;
  uint64_t snapshot_version_ = 0;
  // [part] features, halo included; rows() is the part's row capacity (at
  // least n_local), which every state and the local CSR shape share.
  std::vector<Matrix> feats_;
  std::map<int, VersionState> versions_;
};

}  // namespace ahg::partition

#endif  // AUTOHENS_PARTITION_PARTITIONED_ENGINE_H_
