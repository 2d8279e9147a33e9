// The GCN/SGC stage core: the one place that knows how the
// propagation-only families split into row-local compute stages and how a
// mutation batch dirties them. dyn::IncrementalPropagator drives it over a
// snapshot's own adjacency; partition::PartitionedEngine drives it per
// part, with a halo exchange between stages.
//
// A stage is an optional one-hop aggregation followed by an optional dense
// transform. GCN: L stages H^(l) = ReLU(A H^(l-1) W_l + b_l). SGC: the
// row-local map Z = XW + b, then L hops A^k Z. Dirty-row refresh rests on
// two facts:
//  1. Row r of a stage changes only when A row r changed or an input row in
//     N(r) changed, so the dirty set grows one hop per propagating stage:
//     D_s = S_A ∪ N(D_{s-1}), from the batch's feature-dirty rows. Self
//     loops make N(D) ⊇ D, so the sets are monotone.
//  2. The row kernels are subset-exact: DeltaCsr::SpmmRows and MatMul give
//     rows bitwise identical to those of the full product (fixed per-row
//     accumulation order, one owner per row). So patched stages equal a
//     cold whole-matrix recompute bit for bit, and a part's owned rows
//     equal the lone engine's.
#ifndef AUTOHENS_DYN_STAGES_H_
#define AUTOHENS_DYN_STAGES_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "dyn/snapshot.h"
#include "models/model.h"
#include "tensor/matrix.h"
#include "util/status.h"

namespace ahg::dyn {

// Final-stage dirty fraction beyond which a refresh recomputes everything
// instead of patching rows: patching most of the matrix costs more than
// recomputing it.
inline constexpr double kFullRefreshFraction = 0.5;

// Row-local dense transform of one layer: H = agg * W (+ bias) (ReLU?),
// with exactly the arithmetic of the eval-mode autodiff chain
// Relu(AddRowVector(MatMul(agg, W), b)) — same kernels, same order — so a
// row computed from a gathered subset is bitwise identical to the same row
// of the full layer.
Matrix DenseLayerTransform(const Matrix& agg, const Matrix& w, const Matrix& b,
                           bool relu);

struct RefreshStats {
  bool incremental = false;     // false = full recompute path ran
  uint64_t version = 0;         // snapshot version the states now match
  int64_t rows_refreshed = 0;   // sum of |D_l| over recomputed layers
  int final_dirty_rows = 0;     // |D_L|: rows of H^(L) that were patched
  double dirty_fraction = 0.0;  // final_dirty_rows / num_nodes
};

class StageCore {
 public:
  // True for the families whose layer structure the core understands
  // (kGcn, kSgc); callers fall back to a full zoo forward for the rest.
  static bool Supports(const ModelConfig& config) {
    return !StagesOf(config).empty();
  }

  // Per-stage dirty row sets for a mutation step: entry s - 1 lists the
  // rows that must be recomputed at stage s (see the file comment). Rows
  // are sorted ascending. Pure bitset work — no matrix math — so callers
  // can decide on a full-recompute fallback before spending flops. Empty
  // for an unsupported family.
  static std::vector<std::vector<int>> PerLayerDirtyRows(
      const ModelConfig& config, const DeltaCsr& adj, const BatchDelta& delta);

  // Checks `layer_params` — ParameterStore::Snapshot order, classifier head
  // excluded; GCN: [W_1, b_1, ..., W_L, b_L], SGC: [W, b] — against
  // `config`: family, layer count, tensor count and every shape.
  static Status Validate(const ModelConfig& config,
                         const std::vector<Matrix>& layer_params);

  // `layer_params` must pass Validate.
  StageCore(const ModelConfig& config, std::vector<Matrix> layer_params);

  const ModelConfig& config() const { return config_; }
  int num_stages() const { return static_cast<int>(stages_.size()); }

  // Every stage over all rows of `adj` from features `x`, through the
  // whole-matrix kernels (DeltaCsr::Spmm): entry s - 1 holds stage s.
  std::vector<Matrix> ComputeAll(const DeltaCsr& adj, const Matrix& x) const;

  // Recomputes `rows` (ascending) of stage s in place: reads `x` at s == 1
  // and (*stages)[s - 2] after, writes (*stages)[s - 1].
  void ComputeRows(int s, const DeltaCsr& adj, const Matrix& x,
                   const std::vector<int>& rows,
                   std::vector<Matrix>* stages) const;

  // The dirty-level refresh of one mutation step onto `adj`. When the last
  // level covers more than `full_fraction` of adj's rows nothing runs and
  // the stats come back with incremental == false: the caller recomputes
  // in full. Otherwise `run_stage(s, rows)` runs for s = 1..num_stages() in
  // order with stage s's dirty rows (possibly empty).
  RefreshStats RefreshDirty(
      const DeltaCsr& adj, const BatchDelta& delta, double full_fraction,
      const std::function<void(int s, const std::vector<int>& rows)>&
          run_stage) const;

 private:
  // Stage s over `rows` of `in` (all rows when null).
  Matrix Compute(int s, const DeltaCsr& adj, const Matrix& in,
                 const std::vector<int>* rows) const;

  struct Stage {
    bool propagate;  // aggregates one adjacency hop of its input
    int weight;      // layer_params index of W (bias at weight + 1); -1: none
    bool relu;
  };
  // The stage list of a supported family; empty for every other family.
  static std::vector<Stage> StagesOf(const ModelConfig& config);

  ModelConfig config_;
  std::vector<Matrix> params_;
  std::vector<Stage> stages_;
};

}  // namespace ahg::dyn

#endif  // AUTOHENS_DYN_STAGES_H_
