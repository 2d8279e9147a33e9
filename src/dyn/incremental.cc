#include "dyn/incremental.h"

#include <cstring>
#include <utility>

#include "obs/trace.h"
#include "util/logging.h"

namespace ahg::dyn {

IncrementalPropagator::IncrementalPropagator(const ModelConfig& config,
                                             std::vector<Matrix> layer_params,
                                             const RefreshOptions& options)
    : core_(config, std::move(layer_params)), options_(options) {}

RefreshStats IncrementalPropagator::FullRefresh(const GraphSnapshot& snap) {
  AHG_TRACE_SPAN_ARG("dyn/full_refresh", snap.num_nodes());
  AHG_CHECK_EQ(snap.feature_dim(), core_.config().in_dim);
  x_ = snap.DenseFeatures();
  stages_ = core_.ComputeAll(snap.adjacency(), x_);
  hidden_ = std::make_shared<const Matrix>(stages_.back());
  version_ = snap.version();
  RefreshStats stats;
  stats.incremental = false;
  stats.version = version_;
  stats.rows_refreshed =
      static_cast<int64_t>(snap.num_nodes()) * core_.config().num_layers;
  stats.final_dirty_rows = snap.num_nodes();
  stats.dirty_fraction = 1.0;
  return stats;
}

StatusOr<RefreshStats> IncrementalPropagator::Refresh(
    const GraphSnapshot& snap, const BatchDelta& delta) {
  if (delta.from_version != delta.to_version - 1 ||
      delta.to_version != snap.version()) {
    return Status::InvalidArgument("delta does not describe the step onto "
                                   "the given snapshot");
  }
  if (hidden_ == nullptr || delta.from_version != version_) {
    return FullRefresh(snap);
  }
  AHG_TRACE_SPAN_ARG("dyn/incremental_refresh",
                     static_cast<int64_t>(delta.dirty_adj_rows.size()));
  const DeltaCsr& adj = snap.adjacency();

  // Grow cached states for appended nodes; the new rows are in every dirty
  // set, so their zero-filled tails are overwritten by the refresh.
  const int n = snap.num_nodes();
  if (n > x_.rows()) {
    x_ = GrowRows(x_, n);
    for (Matrix& s : stages_) s = GrowRows(s, n);
  }
  for (int r : delta.dirty_feature_rows) {
    std::memcpy(x_.Row(r), snap.FeatureRow(r),
                static_cast<size_t>(snap.feature_dim()) * sizeof(double));
  }

  const RefreshStats stats = core_.RefreshDirty(
      adj, delta, options_.full_refresh_fraction,
      [&](int s, const std::vector<int>& rows) {
        core_.ComputeRows(s, adj, x_, rows, &stages_);
      });
  if (!stats.incremental) return FullRefresh(snap);
  hidden_ = std::make_shared<const Matrix>(stages_.back());
  version_ = snap.version();
  return stats;
}

void IncrementalPropagator::ApplyReorder(const std::vector<int>& remap,
                                         uint64_t new_version) {
  AHG_CHECK(hidden_ != nullptr);
  AHG_TRACE_SPAN_ARG("dyn/apply_reorder",
                     static_cast<int64_t>(remap.size()));
  x_ = RemapRows(x_, remap, x_.rows());
  for (Matrix& s : stages_) s = RemapRows(s, remap, s.rows());
  hidden_ = std::make_shared<const Matrix>(stages_.back());
  version_ = new_version;
}

Matrix IncrementalPropagator::ComputeFull(const GraphSnapshot& snap) const {
  AHG_CHECK_EQ(snap.feature_dim(), core_.config().in_dim);
  std::vector<Matrix> stages =
      core_.ComputeAll(snap.adjacency(), snap.DenseFeatures());
  return std::move(stages.back());
}

}  // namespace ahg::dyn
