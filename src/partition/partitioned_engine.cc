#include "partition/partitioned_engine.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "dyn/stages.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/inference_engine.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ahg::partition {

namespace {

// Row block by which a part's resident matrices and local CSR shape grow
// (about 16 KB per 32-wide matrix).
constexpr int kGrowRows = 64;

}  // namespace

PartitionedEngine::PartitionedEngine(PartitionPlan plan, const Graph& graph)
    : plan_(std::move(plan)),
      exchange_(&plan_),
      perm_(graph.permutation_ptr()),
      feature_dim_(graph.feature_dim()),
      num_classes_(graph.num_classes()) {
  feats_.reserve(plan_.num_parts);
  for (const PartitionPlan::Part& part : plan_.parts) {
    // Owned AND halo feature rows: stage-1 aggregation reads halo columns
    // of the feature matrix, and features never need exchanging — every
    // part copies them straight from the source graph.
    feats_.push_back(GatherRows(graph.features(), part.locals));
  }
  ExportMetricsLocked();
}

StatusOr<std::unique_ptr<PartitionedEngine>> PartitionedEngine::Create(
    const Graph& graph, int num_parts, const Options& options) {
  if (graph.features().rows() != graph.num_nodes()) {
    return Status::InvalidArgument(
        "partitioned engine needs a graph with node features");
  }
  StatusOr<PartitionPlan> plan =
      PartitionPlan::Build(graph, num_parts, options.partitioner);
  if (!plan.ok()) return plan.status();
  return std::unique_ptr<PartitionedEngine>(
      new PartitionedEngine(std::move(plan).value(), graph));
}

StatusOr<std::unique_ptr<PartitionedEngine>> PartitionedEngine::CreateFromPlan(
    const Graph& graph, PartitionPlan plan) {
  if (graph.features().rows() != graph.num_nodes()) {
    return Status::InvalidArgument(
        "partitioned engine needs a graph with node features");
  }
  if (static_cast<int>(plan.part_of.size()) != graph.num_nodes()) {
    return Status::InvalidArgument(
        StrFormat("plan covers %d nodes, graph has %d",
                  static_cast<int>(plan.part_of.size()), graph.num_nodes()));
  }
  return std::unique_ptr<PartitionedEngine>(
      new PartitionedEngine(std::move(plan), graph));
}

bool PartitionedEngine::HasHalo() const {
  for (const PartitionPlan::Part& part : plan_.parts) {
    if (!part.halo_globals.empty()) return true;
  }
  return false;
}

uint64_t PartitionedEngine::snapshot_version() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return snapshot_version_;
}

int64_t PartitionedEngine::rows_exchanged() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return exchange_.rows_exchanged();
}

int64_t PartitionedEngine::PartResidentBytes(int p) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  AHG_CHECK(p >= 0 && p < plan_.num_parts);
  const PartitionPlan::Part& part = plan_.parts[p];
  int64_t bytes = feats_[p].size() * static_cast<int64_t>(sizeof(double));
  bytes += (part.adj.rows() + 1) * static_cast<int64_t>(sizeof(int64_t)) +
           part.adj.nnz() *
               static_cast<int64_t>(sizeof(int) + sizeof(double));
  for (const auto& [version, vs] : versions_) {
    (void)version;
    for (const Matrix& state : vs.states[p]) {
      bytes += state.size() * static_cast<int64_t>(sizeof(double));
    }
  }
  return bytes;
}

void PartitionedEngine::RecomputeLocked(VersionState* vs) {
  const int S = vs->core.num_stages();
  vs->states.assign(feats_.size(), {});
  for (size_t p = 0; p < feats_.size(); ++p) {
    // One state at a time: a prototype to copy from would be one state
    // more at the warm's peak.
    vs->states[p].reserve(S);
    for (int s = 0; s < S; ++s) {
      vs->states[p].emplace_back(feats_[p].rows(),
                                 vs->core.config().hidden_dim);
    }
  }
  for (int s = 1; s <= S; ++s) RunStageLocked(vs, s, nullptr, {});
}

void PartitionedEngine::RunStageLocked(VersionState* vs, int s,
                                       const std::vector<int>* level,
                                       const std::vector<int>& forced) {
  const int P = plan_.num_parts;
  for (int p = 0; p < P; ++p) {
    const PartitionPlan::Part& part = plan_.parts[p];
    std::vector<int> rows;  // owned rows of `level`, ascending local id
    if (level != nullptr) {
      for (int g : *level) {
        if (plan_.part_of[g] == p) rows.push_back(part.local_of.at(g));
      }
      std::sort(rows.begin(), rows.end());
    }
    vs->core.ComputeRows(s, part.adj, feats_[p],
                         level != nullptr ? rows : part.owned_locals,
                         &vs->states[p]);
  }
  if (!HasHalo()) return;
  // Fixed order: post all parts ascending, then deliver all parts
  // ascending — the halo rows of stage s are in place before any part
  // reads them at stage s + 1.
  std::vector<int> post;
  if (level != nullptr) {
    std::set_union(level->begin(), level->end(), forced.begin(), forced.end(),
                   std::back_inserter(post));
  }
  for (int p = 0; p < P; ++p) {
    exchange_.PostBoundary(p, vs->states[p][s - 1],
                           level != nullptr ? &post : nullptr);
  }
  for (int p = 0; p < P; ++p) exchange_.DeliverHalo(p, &vs->states[p][s - 1]);
}

Status PartitionedEngine::WarmLocked(const serve::ServableModel& model) {
  if (versions_.count(model.version) != 0) return Status::OK();
  AHG_TRACE_SPAN_ARG("partition/warm", model.version);
  if (model.config.in_dim != feature_dim_) {
    return Status::InvalidArgument(
        StrFormat("model in_dim %d does not match graph feature_dim %d",
                  model.config.in_dim, feature_dim_));
  }
  if (model.params.size() < 2) {
    return Status::InvalidArgument("model lacks its 2-tensor classifier head");
  }
  std::vector<Matrix> layer_params(model.params.begin(),
                                   model.params.end() - 2);
  Status valid = dyn::StageCore::Validate(model.config, layer_params);
  if (!valid.ok()) return valid;
  VersionState vs{dyn::StageCore(model.config, std::move(layer_params)), {}};
  RecomputeLocked(&vs);
  versions_.emplace(model.version, std::move(vs));
  return Status::OK();
}

StatusOr<int> PartitionedEngine::InternalIdLocked(int node) const {
  const int n = static_cast<int>(plan_.part_of.size());
  if (node < 0 || node >= n) {
    return Status::InvalidArgument(
        StrFormat("node %d outside [0, %d)", node, n));
  }
  // Query ids are external; plan globals are internal (see perm_).
  return perm_ != nullptr && node < perm_->num_nodes()
             ? perm_->to_internal[node]
             : node;
}

StatusOr<int> PartitionedEngine::OwnerOf(int node) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  StatusOr<int> g = InternalIdLocked(node);
  if (!g.ok()) return g.status();
  return plan_.part_of[g.value()];
}

StatusOr<Matrix> PartitionedEngine::GatherAndHead(
    const VersionState& vs, const serve::ServableModel& model,
    const std::vector<int>& nodes) const {
  Matrix hidden(static_cast<int>(nodes.size()), vs.core.config().hidden_dim);
  for (size_t i = 0; i < nodes.size(); ++i) {
    StatusOr<int> g = InternalIdLocked(nodes[i]);
    if (!g.ok()) return g.status();
    const int p = plan_.part_of[g.value()];
    const Matrix& final_state = vs.states[p].back();
    std::memcpy(hidden.Row(static_cast<int>(i)),
                final_state.Row(plan_.parts[p].local_of.at(g.value())),
                static_cast<size_t>(hidden.cols()) * sizeof(double));
  }
  return serve::ApplyClassifierHead(hidden, model);
}

StatusOr<Matrix> PartitionedEngine::PredictNodes(
    const serve::ServableModel& model, const std::vector<int>& nodes) {
  AHG_TRACE_SPAN_ARG("partition/predict", static_cast<int64_t>(nodes.size()));
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = versions_.find(model.version);
    if (it != versions_.end()) return GatherAndHead(it->second, model, nodes);
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  Status warmed = WarmLocked(model);
  if (!warmed.ok()) return warmed;
  return GatherAndHead(versions_.at(model.version), model, nodes);
}

Status PartitionedEngine::Warm(const serve::ServableModel& model) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return WarmLocked(model);
}

Status PartitionedEngine::ApplyDelta(const dyn::GraphSnapshot& snap,
                                     const dyn::BatchDelta& delta) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  AHG_TRACE_SPAN_ARG("partition/apply_delta",
                     static_cast<int64_t>(delta.TotalMutations()));
  if (delta.from_version != snapshot_version_ ||
      delta.to_version != snap.version()) {
    return Status::InvalidArgument(
        StrFormat("delta %llu->%llu does not step the engine from version "
                  "%llu onto snapshot %llu",
                  static_cast<unsigned long long>(delta.from_version),
                  static_cast<unsigned long long>(delta.to_version),
                  static_cast<unsigned long long>(snapshot_version_),
                  static_cast<unsigned long long>(snap.version())));
  }
  if (snap.feature_dim() != feature_dim_) {
    return Status::InvalidArgument("snapshot feature_dim changed");
  }
  const int P = plan_.num_parts;
  const int n_old = static_cast<int>(plan_.part_of.size());
  const int n_new = snap.num_nodes();
  const dyn::DeltaCsr& gadj = snap.adjacency();

  // 1. Appended nodes go to the currently smallest part (ties: lowest id).
  std::vector<int64_t> owned_count(P);
  for (int p = 0; p < P; ++p) owned_count[p] = plan_.parts[p].num_owned();
  for (int g = n_old; g < n_new; ++g) {
    int best = 0;
    for (int p = 1; p < P; ++p) {
      if (owned_count[p] < owned_count[best]) best = p;
    }
    plan_.part_of.push_back(best);
    ++owned_count[best];
  }

  // 2. Per-part additions: appended nodes owned there, plus any column of a
  // dirty owned row that is not yet in the part's local universe (new halo
  // from cut-edge creation; appended rows count — their off-part neighbors
  // become halo of the part that received them). Sorted ascending per part.
  std::vector<std::vector<int>> additions(P);
  std::vector<int> forced;  // new halo nodes, see step 6
  for (int g = n_old; g < n_new; ++g) {
    additions[plan_.part_of[g]].push_back(g);
  }
  for (int g : delta.dirty_adj_rows) {
    const int p = plan_.part_of[g];
    const dyn::DeltaCsr::RowRef row = gadj.Row(g);
    for (int64_t e = 0; e < row.nnz; ++e) {
      const int c = row.cols[e];
      if (plan_.parts[p].local_of.count(c) == 0) additions[p].push_back(c);
    }
  }

  // 3. Append every addition after the part's existing locals; no local
  // ever moves. Resident matrices and the local CSR shape grow a block of
  // kGrowRows rows at a time, so an append copies nothing until its block
  // fills. New rows start zero and get their values from the snapshot
  // (features), the dirty recompute (owned states) or the forced halo
  // delivery (halo states).
  bool structural = false;
  for (int p = 0; p < P; ++p) {
    std::vector<int>& added = additions[p];
    if (added.empty()) continue;
    structural = true;
    std::sort(added.begin(), added.end());
    added.erase(std::unique(added.begin(), added.end()), added.end());
    PartitionPlan::Part& part = plan_.parts[p];
    for (int g : added) {
      const bool owned = plan_.part_of[g] == p;
      if (!owned) forced.push_back(g);
      part.Append(g, owned);
    }
    if (part.num_local() > feats_[p].rows()) {
      const int rows = (part.num_local() / kGrowRows + 1) * kGrowRows;
      feats_[p] = GrowRows(feats_[p], rows);
      for (auto& [version, vs] : versions_) {
        (void)version;
        for (Matrix& state : vs.states[p]) state = GrowRows(state, rows);
      }
      part.adj.Grow(rows, rows);
      obs::MetricsRegistry::Global()
          .GetCounter("partition.part_grows")
          ->Increment(1);
    }
    for (int g : added) {
      std::memcpy(feats_[p].Row(part.local_of.at(g)), snap.FeatureRow(g),
                  static_cast<size_t>(feature_dim_) * sizeof(double));
    }
    // The new locals need ranks before step 4 patches rows that use them.
    part.SetColRank(perm_.get());
  }

  // 4. Patch dirty adjacency rows on their owning part. The override copies
  // the global row's stored entry order (ascending rank), which column
  // remapping preserves.
  for (int g : delta.dirty_adj_rows) {
    PartitionPlan::Part& part = plan_.parts[plan_.part_of[g]];
    const dyn::DeltaCsr::RowRef row = gadj.Row(g);
    std::vector<int> cols(row.nnz);
    std::vector<double> vals(row.vals, row.vals + row.nnz);
    for (int64_t e = 0; e < row.nnz; ++e) {
      cols[e] = part.local_of.at(row.cols[e]);
    }
    part.adj.OverrideRow(part.local_of.at(g), std::move(cols),
                         std::move(vals));
  }

  // 5. Dirty feature rows land on EVERY part holding the row (owner or
  // halo): stage-1 aggregation reads halo feature rows locally.
  for (int g : delta.dirty_feature_rows) {
    for (int p = 0; p < P; ++p) {
      auto it = plan_.parts[p].local_of.find(g);
      if (it == plan_.parts[p].local_of.end()) continue;
      std::memcpy(feats_[p].Row(it->second), snap.FeatureRow(g),
                  static_cast<size_t>(feature_dim_) * sizeof(double));
    }
  }

  if (structural) {
    plan_.halo_nodes_total = 0;
    for (const PartitionPlan::Part& part : plan_.parts) {
      plan_.halo_nodes_total += part.num_halo();
    }
    exchange_.Rebuild();
  }

  // 6. Forced halo set: globals some part now holds as halo but whose
  // hidden states it has never received. For GCN every such node is in
  // every dirty level (its adjacency row changed), but SGC's Z level is
  // feature-dirty only — so the union is forced into every post set.
  std::sort(forced.begin(), forced.end());
  forced.erase(std::unique(forced.begin(), forced.end()), forced.end());

  // 7. Refresh every warmed version through the stage core's dirty levels.
  {
    AHG_TRACE_SPAN("partition/refresh");
    for (auto& [version, vs] : versions_) {
      (void)version;
      const dyn::RefreshStats refreshed = vs.core.RefreshDirty(
          gadj, delta, dyn::kFullRefreshFraction,
          [&](int s, const std::vector<int>& level) {
            RunStageLocked(&vs, s, &level, forced);
          });
      if (!refreshed.incremental) RecomputeLocked(&vs);
    }
  }

  for (PartitionPlan::Part& part : plan_.parts) part.adj.MaybeCompact();
  snapshot_version_ = snap.version();
  obs::MetricsRegistry::Global()
      .GetCounter("partition.deltas_applied")
      ->Increment(1);
  ExportMetricsLocked();
  return Status::OK();
}

void PartitionedEngine::ExportMetricsLocked() const {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetGauge("partition.parts")->Set(plan_.num_parts);
  reg.GetGauge("partition.cut_edges")
      ->Set(static_cast<double>(plan_.metrics.cut_edges));
  reg.GetGauge("partition.imbalance")->Set(plan_.metrics.balance_factor);
  reg.GetGauge("partition.halo_nodes")
      ->Set(static_cast<double>(plan_.halo_nodes_total));
}

}  // namespace ahg::partition
