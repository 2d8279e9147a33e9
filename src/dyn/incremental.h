// Incremental propagation refresh: patch cached layer states H^(1..L)
// after a mutation batch by recomputing only dirty rows. This is the
// one-part driver of the GCN/SGC stage core (dyn/stages.h), which owns the
// family gate, the stages and the dirty-row expansion; patched states stay
// bitwise identical to the cold recompute ComputeFull() (tests memcmp).
// A refresh falls back to FullRefresh when the final dirty set exceeds
// options.full_refresh_fraction of the rows (patching most of the matrix
// costs more than recomputing it) or when the snapshot is not the direct
// successor of the cached version.
#ifndef AUTOHENS_DYN_INCREMENTAL_H_
#define AUTOHENS_DYN_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "dyn/snapshot.h"
#include "dyn/stages.h"
#include "models/model.h"
#include "tensor/matrix.h"
#include "util/status.h"

namespace ahg::dyn {

struct RefreshOptions {
  // Fall back to a full recompute when |D_L| / num_nodes exceeds this.
  double full_refresh_fraction = kFullRefreshFraction;
  // Recycle refresh scratch (dirty-row gathers, per-layer patch products)
  // through the MatrixPool (tensor/pool.h) for the duration of each
  // Refresh/FullRefresh call. Bitwise-neutral.
  bool pooling = false;
};

class IncrementalPropagator {
 public:
  // `layer_params` as StageCore::Validate describes; they must pass it.
  IncrementalPropagator(const ModelConfig& config,
                        std::vector<Matrix> layer_params,
                        const RefreshOptions& options = {});

  // Cold recompute of every cached layer state from `snap`.
  RefreshStats FullRefresh(const GraphSnapshot& snap);

  // Patches the cached states from `snap.version() - 1` to `snap.version()`
  // using the batch's dirty sets; falls back to FullRefresh when it cannot
  // (see file comment). `delta` must describe the step onto `snap`.
  StatusOr<RefreshStats> Refresh(const GraphSnapshot& snap,
                                 const BatchDelta& delta);

  // Moves every cached layer state through `remap` (remap[old_row] =
  // new_row; RemapRows) after a GraphSnapshot::Reordered relayout, and
  // adopts the reordered snapshot's version. Pure data movement, zero
  // FLOPs — rows keep their bytes at new positions — so the incremental
  // dirty-set cost bound is untouched and the next Refresh patches as if
  // the relayout never happened.
  void ApplyReorder(const std::vector<int>& remap, uint64_t new_version);

  // Final hidden states H^(L) for the current version — an immutable copy
  // published per refresh, safe to hand to concurrent readers and caches.
  std::shared_ptr<const Matrix> hidden() const { return hidden_; }

  uint64_t version() const { return version_; }

  // Oracle: H^(L) recomputed from scratch through the whole-matrix kernels
  // (DeltaCsr::Spmm), without touching cached state. Tests memcmp this
  // against the patched states.
  Matrix ComputeFull(const GraphSnapshot& snap) const;

 private:
  StageCore core_;
  RefreshOptions options_;
  uint64_t version_ = 0;
  Matrix x_;                   // dense features X
  std::vector<Matrix> stages_;  // stages_[s - 1] = stage s (StageCore)
  std::shared_ptr<const Matrix> hidden_;
};

}  // namespace ahg::dyn

#endif  // AUTOHENS_DYN_INCREMENTAL_H_
