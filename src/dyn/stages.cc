#include "dyn/stages.h"

#include <utility>

#include "util/bitset.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ahg::dyn {

Matrix DenseLayerTransform(const Matrix& agg, const Matrix& w, const Matrix& b,
                           bool relu) {
  Matrix h = MatMul(agg, w);
  AHG_CHECK_EQ(b.rows(), 1);
  AHG_CHECK_EQ(b.cols(), h.cols());
  for (int r = 0; r < h.rows(); ++r) {
    double* row = h.Row(r);
    const double* bias = b.Row(0);
    for (int c = 0; c < h.cols(); ++c) row[c] += bias[c];
    if (relu) {
      for (int c = 0; c < h.cols(); ++c) row[c] = row[c] > 0.0 ? row[c] : 0.0;
    }
  }
  return h;
}

std::vector<std::vector<int>> StageCore::PerLayerDirtyRows(
    const ModelConfig& config, const DeltaCsr& adj, const BatchDelta& delta) {
  // The frontier starts at the feature-dirty rows. A propagating stage
  // makes it S_A ∪ N(D): the adjacency-dirty rows plus each adjacency-row
  // neighborhood of D (the symmetric self-looped adjacency makes
  // N(D) ⊇ D); a row-local stage (SGC's linear map) keeps it as is.
  std::vector<std::vector<int>> dirty_rows;
  DynamicBitset frontier(adj.rows());
  for (int r : delta.dirty_feature_rows) frontier.Set(r);
  for (const Stage& stage : StagesOf(config)) {
    if (stage.propagate) {
      DynamicBitset next(adj.rows());
      for (int r : delta.dirty_adj_rows) next.Set(r);
      for (int r : frontier.ToSortedVector()) {
        const DeltaCsr::RowRef row = adj.Row(r);
        for (int64_t e = 0; e < row.nnz; ++e) next.Set(row.cols[e]);
      }
      frontier = std::move(next);
    }
    dirty_rows.push_back(frontier.ToSortedVector());
  }
  return dirty_rows;
}

std::vector<StageCore::Stage> StageCore::StagesOf(const ModelConfig& config) {
  std::vector<Stage> stages;
  if (config.num_layers <= 0) return stages;
  switch (config.family) {
    case ModelFamily::kGcn:  // H^(l) = ReLU(A H^(l-1) W_l + b_l)
      for (int l = 0; l < config.num_layers; ++l) {
        stages.push_back({/*propagate=*/true, /*weight=*/2 * l, /*relu=*/true});
      }
      break;
    case ModelFamily::kSgc:  // Z = XW + b, then A^k Z
      stages.push_back({/*propagate=*/false, /*weight=*/0, /*relu=*/false});
      for (int l = 0; l < config.num_layers; ++l) {
        stages.push_back({/*propagate=*/true, /*weight=*/-1, /*relu=*/false});
      }
      break;
    default:
      break;
  }
  return stages;
}

Status StageCore::Validate(const ModelConfig& config,
                           const std::vector<Matrix>& layer_params) {
  const std::vector<Stage> stages = StagesOf(config);
  if (stages.empty()) {
    return Status::InvalidArgument(
        StrFormat("model family %s with %d layers has no GCN/SGC stages",
                  ModelFamilyName(config.family), config.num_layers));
  }
  int expected = 0;
  for (const Stage& stage : stages) expected += stage.weight >= 0 ? 2 : 0;
  if (static_cast<int>(layer_params.size()) != expected) {
    return Status::InvalidArgument(
        StrFormat("model has %d layer tensors, %s-%dL expects %d",
                  static_cast<int>(layer_params.size()),
                  ModelFamilyName(config.family), config.num_layers,
                  expected));
  }
  int in = config.in_dim;
  for (const Stage& stage : stages) {
    if (stage.weight < 0) continue;
    const Matrix& w = layer_params[stage.weight];
    const Matrix& b = layer_params[stage.weight + 1];
    if (w.rows() != in || w.cols() != config.hidden_dim || b.rows() != 1 ||
        b.cols() != config.hidden_dim) {
      return Status::InvalidArgument(StrFormat(
          "layer tensors %d/%d are %dx%d/%dx%d, expected %dx%d/1x%d",
          stage.weight, stage.weight + 1, w.rows(), w.cols(), b.rows(),
          b.cols(), in, config.hidden_dim, config.hidden_dim));
    }
    in = config.hidden_dim;
  }
  return Status::OK();
}

StageCore::StageCore(const ModelConfig& config,
                     std::vector<Matrix> layer_params)
    : config_(config),
      params_(std::move(layer_params)),
      stages_(StagesOf(config)) {
  const Status valid = Validate(config_, params_);
  AHG_CHECK_MSG(valid.ok(), valid.message());
}

Matrix StageCore::Compute(int s, const DeltaCsr& adj, const Matrix& in,
                          const std::vector<int>* rows) const {
  const Stage& stage = stages_[s - 1];
  const auto transform = [&](const Matrix& agg) {
    return DenseLayerTransform(agg, params_[stage.weight],
                               params_[stage.weight + 1], stage.relu);
  };
  if (!stage.propagate) {  // row-local: reads only its own input rows
    return rows != nullptr ? transform(GatherRows(in, *rows)) : transform(in);
  }
  Matrix agg = rows != nullptr ? adj.SpmmRows(*rows, in) : adj.Spmm(in);
  if (stage.weight < 0) return agg;
  return transform(agg);
}

std::vector<Matrix> StageCore::ComputeAll(const DeltaCsr& adj,
                                          const Matrix& x) const {
  std::vector<Matrix> stages;
  stages.reserve(stages_.size());
  for (int s = 1; s <= num_stages(); ++s) {
    stages.push_back(Compute(s, adj, s == 1 ? x : stages.back(), nullptr));
  }
  return stages;
}

void StageCore::ComputeRows(int s, const DeltaCsr& adj, const Matrix& x,
                            const std::vector<int>& rows,
                            std::vector<Matrix>* stages) const {
  if (rows.empty()) return;
  const Matrix& in = s == 1 ? x : (*stages)[s - 2];
  ScatterRows(Compute(s, adj, in, &rows), rows, &(*stages)[s - 1]);
}

RefreshStats StageCore::RefreshDirty(
    const DeltaCsr& adj, const BatchDelta& delta, double full_fraction,
    const std::function<void(int s, const std::vector<int>& rows)>& run_stage)
    const {
  const std::vector<std::vector<int>> dirty_rows =
      PerLayerDirtyRows(config_, adj, delta);
  RefreshStats stats;
  stats.version = delta.to_version;
  stats.final_dirty_rows = static_cast<int>(dirty_rows.back().size());
  stats.dirty_fraction =
      adj.rows() > 0 ? static_cast<double>(stats.final_dirty_rows) / adj.rows()
                     : 0.0;
  if (stats.dirty_fraction > full_fraction) return stats;
  stats.incremental = true;
  for (int s = 1; s <= num_stages(); ++s) {
    run_stage(s, dirty_rows[s - 1]);
    stats.rows_refreshed += static_cast<int64_t>(dirty_rows[s - 1].size());
  }
  return stats;
}

}  // namespace ahg::dyn
