#include "dyn/snapshot.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/trace.h"
#include "util/bitset.h"
#include "util/string_util.h"

namespace ahg::dyn {

namespace {

// Working (mutable) form of one raw adjacency row: (col, weight) pairs in
// ascending column-RANK order (rank == column id on unreordered snapshots,
// ascending external id on reordered ones — see DeltaCsr::SetColRank). All
// binary searches below compare ranks so the one invariant covers both.
using WorkRow = std::vector<std::pair<int, double>>;

bool RowHasCol(const DeltaCsr& rank_src, const WorkRow& row, int col) {
  const int64_t rank = rank_src.RankOf(col);
  auto it = std::lower_bound(row.begin(), row.end(), rank,
                             [&](const std::pair<int, double>& e, int64_t rk) {
                               return rank_src.RankOf(e.first) < rk;
                             });
  return it != row.end() && it->first == col;
}

void RowInsert(const DeltaCsr& rank_src, WorkRow* row, int col,
               double weight) {
  const int64_t rank = rank_src.RankOf(col);
  auto it = std::lower_bound(row->begin(), row->end(), rank,
                             [&](const std::pair<int, double>& e, int64_t rk) {
                               return rank_src.RankOf(e.first) < rk;
                             });
  row->insert(it, {col, weight});
}

void RowErase(const DeltaCsr& rank_src, WorkRow* row, int col) {
  const int64_t rank = rank_src.RankOf(col);
  auto it = std::lower_bound(row->begin(), row->end(), rank,
                             [&](const std::pair<int, double>& e, int64_t rk) {
                               return rank_src.RankOf(e.first) < rk;
                             });
  AHG_CHECK(it != row->end() && it->first == col);
  row->erase(it);
}

bool CsrRowHasCol(const DeltaCsr& m, int r, int col) {
  const DeltaCsr::RowRef row = m.Row(r);
  const int* end = row.cols + row.nnz;
  const int64_t rank = m.RankOf(col);
  const int* it =
      std::lower_bound(row.cols, end, rank,
                       [&](int c, int64_t rk) { return m.RankOf(c) < rk; });
  return it != end && *it == col;
}

// Column-rank vector for reordered CSRs: an aliased pointer into the
// permutation's to_external array (rank of internal id i = its external id).
std::shared_ptr<const std::vector<int>> RankVector(
    const std::shared_ptr<const NodePermutation>& perm) {
  if (perm == nullptr) return nullptr;
  return std::shared_ptr<const std::vector<int>>(perm, &perm->to_external);
}

}  // namespace

StatusOr<GraphSnapshot> GraphSnapshot::FromGraph(const Graph& graph) {
  if (graph.directed()) {
    return Status::InvalidArgument(
        "dynamic snapshots support undirected graphs only");
  }
  const int n = graph.num_nodes();
  if (graph.features().rows() != n || graph.feature_dim() <= 0) {
    return Status::InvalidArgument(
        StrFormat("snapshot requires features for all %d nodes (have %d x %d)",
                  n, graph.features().rows(), graph.feature_dim()));
  }
  for (const Edge& e : graph.edges()) {
    if (e.src == e.dst) {
      return Status::InvalidArgument(StrFormat(
          "self-loop edge (%d, %d) unsupported in dynamic snapshots", e.src,
          e.dst));
    }
    if (!std::isfinite(e.weight) || e.weight <= 0.0) {
      return Status::InvalidArgument(
          StrFormat("edge (%d, %d) has non-positive or non-finite weight",
                    e.src, e.dst));
    }
  }

  GraphSnapshot snap;
  snap.version_ = 0;
  snap.feature_dim_ = graph.feature_dim();
  snap.num_classes_ = graph.num_classes();

  // Raw symmetric weights, both orientations, no self loops. Built in
  // EXTERNAL space (FromCoo sorts entries by external column there), then —
  // on a reordered graph — permuted with stored order preserved, so every
  // raw row keeps ascending-external ("rank") order: the same invariant the
  // shared kSymNorm cache below already satisfies.
  const NodePermutation* perm = graph.permutation();
  std::vector<CooEntry> entries;
  entries.reserve(2 * graph.edges().size());
  for (const Edge& e : graph.edges()) {
    const int src = perm == nullptr ? e.src : perm->to_external[e.src];
    const int dst = perm == nullptr ? e.dst : perm->to_external[e.dst];
    entries.push_back({dst, src, e.weight});
    entries.push_back({src, dst, e.weight});
  }
  SparseMatrix raw_ext = SparseMatrix::FromCoo(n, n, std::move(entries));
  snap.raw_ = DeltaCsr(std::make_shared<const SparseMatrix>(
      perm == nullptr ? std::move(raw_ext) : PermuteSparse(raw_ext, *perm)));

  // deg = raw row sum (ascending column order) + 1.0 for the self loop —
  // the quantity Graph normalizes by. For unweighted graphs this is an
  // exact integer, identical to Graph's own edge-order accumulation.
  snap.deg_.assign(n, 0.0);
  for (int r = 0; r < n; ++r) {
    const DeltaCsr::RowRef row = snap.raw_.Row(r);
    double d = 0.0;
    for (int64_t e = 0; e < row.nnz; ++e) d += row.vals[e];
    snap.deg_[r] = d + 1.0;
  }

  // Share the graph's cached kSymNorm matrix verbatim: version-0 serving is
  // bitwise identical to the static path by construction.
  snap.adj_ = DeltaCsr(std::make_shared<const SparseMatrix>(
      graph.Adjacency(AdjacencyKind::kSymNorm)));

  snap.feat_base_ = std::make_shared<const Matrix>(graph.features());
  snap.labels_ = std::make_shared<const std::vector<int>>(graph.labels());
  snap.perm_ = graph.permutation_ptr();
  if (snap.perm_ != nullptr) {
    auto rank = RankVector(snap.perm_);
    snap.raw_.SetColRank(rank);
    snap.adj_.SetColRank(rank);
  }
  return snap;
}

bool GraphSnapshot::HasEdge(int u, int v) const {
  AHG_CHECK(u >= 0 && u < num_nodes());
  AHG_CHECK(v >= 0 && v < num_nodes());
  return CsrRowHasCol(raw_, ToInternal(u), ToInternal(v));
}

const double* GraphSnapshot::FeatureRow(int r) const {
  AHG_CHECK(r >= 0 && r < num_nodes());
  auto it = feat_overrides_.find(r);
  if (it != feat_overrides_.end()) return it->second->data();
  AHG_CHECK(feat_base_ != nullptr && r < feat_base_->rows());
  return feat_base_->Row(r);
}

int GraphSnapshot::label(int r) const {
  AHG_CHECK(r >= 0 && r < num_nodes());
  return (*labels_)[r];
}

Matrix GraphSnapshot::DenseFeatures() const {
  Matrix out(num_nodes(), feature_dim_);
  for (int r = 0; r < num_nodes(); ++r) {
    std::memcpy(out.Row(r), FeatureRow(r),
                static_cast<size_t>(feature_dim_) * sizeof(double));
  }
  return out;
}

Matrix GraphSnapshot::GatherFeatures(const std::vector<int>& rows) const {
  Matrix out(static_cast<int>(rows.size()), feature_dim_);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::memcpy(out.Row(static_cast<int>(i)), FeatureRow(rows[i]),
                static_cast<size_t>(feature_dim_) * sizeof(double));
  }
  return out;
}

StatusOr<std::pair<GraphSnapshot, BatchDelta>> GraphSnapshot::Apply(
    const std::vector<Mutation>& batch) const {
  AHG_TRACE_SPAN_ARG("dyn/apply_batch", static_cast<int64_t>(batch.size()));
  const int base_n = num_nodes();
  int n = base_n;

  BatchDelta delta;
  delta.from_version = version_;
  delta.to_version = version_ + 1;

  // Working copies of every raw row the batch touches. A row is pulled once
  // (O(deg) copy) and mutated in place; untouched rows are never read.
  std::unordered_map<int, WorkRow> work;
  auto working_row = [&](int r) -> WorkRow& {
    auto it = work.find(r);
    if (it != work.end()) return it->second;
    WorkRow row;
    if (r < raw_.rows()) {
      const DeltaCsr::RowRef ref = raw_.Row(r);
      row.reserve(ref.nnz);
      for (int64_t e = 0; e < ref.nnz; ++e) {
        row.push_back({ref.cols[e], ref.vals[e]});
      }
    }
    return work.emplace(r, std::move(row)).first->second;
  };
  auto edge_exists = [&](int u, int v) {
    auto it = work.find(u);
    if (it != work.end()) return RowHasCol(raw_, it->second, v);
    return u < raw_.rows() && CsrRowHasCol(raw_, u, v);
  };
  // Mutation node ids are EXTERNAL; rows live in internal order. Nodes past
  // the permutation (added earlier in this batch) map to themselves —
  // matching the identity tail ExtendedTo appends below.
  auto to_int = [&](int ext) {
    return perm_ != nullptr &&
                   ext < static_cast<int>(perm_->to_internal.size())
               ? perm_->to_internal[ext]
               : ext;
  };

  std::unordered_map<int, std::shared_ptr<const std::vector<double>>>
      new_feats;
  std::vector<int> new_labels;

  for (size_t i = 0; i < batch.size(); ++i) {
    const Mutation& m = batch[i];
    auto fail = [&](const char* why) {
      return Status::InvalidArgument(StrFormat(
          "batch rejected at mutation %d [%s]: %s", static_cast<int>(i),
          m.ToString().c_str(), why));
    };
    switch (m.kind) {
      case MutationKind::kAddEdge: {
        if (m.u < 0 || m.u >= n || m.v < 0 || m.v >= n) {
          return fail("endpoint out of range");
        }
        if (m.u == m.v) return fail("self loops are unsupported");
        if (!std::isfinite(m.weight) || m.weight <= 0.0) {
          return fail("weight must be finite and > 0");
        }
        const int u = to_int(m.u), v = to_int(m.v);
        if (edge_exists(u, v)) return fail("edge already present");
        RowInsert(raw_, &working_row(u), v, m.weight);
        RowInsert(raw_, &working_row(v), u, m.weight);
        ++delta.edges_added;
        break;
      }
      case MutationKind::kRemoveEdge: {
        if (m.u < 0 || m.u >= n || m.v < 0 || m.v >= n) {
          return fail("endpoint out of range");
        }
        if (m.u == m.v) return fail("self loops are unsupported");
        const int u = to_int(m.u), v = to_int(m.v);
        if (!edge_exists(u, v)) return fail("edge not present");
        RowErase(raw_, &working_row(u), v);
        RowErase(raw_, &working_row(v), u);
        ++delta.edges_removed;
        break;
      }
      case MutationKind::kAddNode: {
        if (static_cast<int>(m.features.size()) != feature_dim_) {
          return fail("feature payload width != snapshot feature_dim");
        }
        if (m.label < -1 || m.label >= num_classes_) {
          return fail("label outside [-1, num_classes)");
        }
        const int id = n++;
        working_row(id);  // empty row; marks the node structurally dirty
        new_feats[id] =
            std::make_shared<const std::vector<double>>(m.features);
        new_labels.push_back(m.label);
        ++delta.nodes_added;
        break;
      }
      case MutationKind::kUpdateFeatures: {
        if (m.u < 0 || m.u >= n) return fail("node out of range");
        if (static_cast<int>(m.features.size()) != feature_dim_) {
          return fail("feature payload width != snapshot feature_dim");
        }
        new_feats[to_int(m.u)] =
            std::make_shared<const std::vector<double>>(m.features);
        ++delta.features_updated;
        break;
      }
    }
  }

  // Every mutation validated; assemble the next version. COW: the DeltaCsr
  // copies share the base and all untouched overlay rows; features share
  // the base matrix; only deg_ is a flat O(n) copy (8 bytes/node).
  GraphSnapshot next = *this;
  next.version_ = version_ + 1;
  if (n > base_n) {
    next.raw_.Grow(n, n);
    next.adj_.Grow(n, n);
    next.deg_.resize(n, 1.0);  // isolated until edges say otherwise
    auto labels = std::make_shared<std::vector<int>>(*labels_);
    labels->insert(labels->end(), new_labels.begin(), new_labels.end());
    next.labels_ = std::move(labels);
    if (perm_ != nullptr) {
      // Appended nodes get a stable id: external == internal == append
      // position, until the next re-reorder moves them.
      next.perm_ =
          std::make_shared<const NodePermutation>(perm_->ExtendedTo(n));
      auto rank = RankVector(next.perm_);
      next.raw_.SetColRank(rank);
      next.adj_.SetColRank(rank);
    }
  }
  for (auto& [r, vec] : new_feats) {
    next.feat_overrides_[r] = std::move(vec);
  }
  // Fold the feature overrides into a fresh base at the same fraction
  // DeltaCsr compacts at, so an unreordered snapshot (never Reordered())
  // does not carry, and copy per batch, every feature update it has seen.
  if (next.feat_overrides_.size() >=
      DeltaCsr::kCompactionFraction * static_cast<double>(n)) {
    next.feat_base_ = std::make_shared<const Matrix>(next.DenseFeatures());
    next.feat_overrides_.clear();
  }

  // Install rebuilt raw rows; recompute degrees from the new row contents
  // (a deterministic function of the graph state — the same edge set yields
  // the same degree no matter the mutation history).
  DynamicBitset deg_changed(n);
  for (const auto& [r, row] : work) {
    std::vector<int> cols;
    std::vector<double> vals;
    cols.reserve(row.size());
    vals.reserve(row.size());
    double d = 0.0;
    for (const auto& [c, w] : row) {
      cols.push_back(c);
      vals.push_back(w);
      d += w;
    }
    d += 1.0;
    const double old = r < base_n ? deg_[r] : 1.0;
    if (d != old) deg_changed.Set(r);
    next.deg_[r] = d;
    next.raw_.OverrideRow(r, std::move(cols), std::move(vals));
  }

  // Adjacency-dirty rows: every structurally touched row, plus current
  // neighbors of any node whose degree changed (their entry at that node's
  // column renormalizes).
  DynamicBitset dirty(n);
  for (const auto& [r, row] : work) {
    (void)row;
    dirty.Set(r);
  }
  for (int u : deg_changed.ToSortedVector()) {
    const DeltaCsr::RowRef row = next.raw_.Row(u);
    for (int64_t e = 0; e < row.nnz; ++e) dirty.Set(row.cols[e]);
  }
  delta.dirty_adj_rows = dirty.ToSortedVector();

  // Rebuild the normalized row for every dirty row, with the exact
  // expression Graph::BuildAdjacencyCaches uses: w / sqrt(deg_r * deg_c),
  // self-loop weight 1.0.
  for (int r : delta.dirty_adj_rows) {
    const DeltaCsr::RowRef row = next.raw_.Row(r);
    std::vector<int> cols;
    std::vector<double> vals;
    cols.reserve(row.nnz + 1);
    vals.reserve(row.nnz + 1);
    bool self_emitted = false;
    auto emit = [&](int c, double w) {
      const double d = std::sqrt(next.deg_[r] * next.deg_[c]);
      cols.push_back(c);
      vals.push_back(d > 0.0 ? w / d : 0.0);
    };
    // Stored order is ascending rank, so the self loop slots in where the
    // row's own rank falls (plain column order when unreordered).
    const int64_t self_rank = next.raw_.RankOf(r);
    for (int64_t e = 0; e < row.nnz; ++e) {
      if (!self_emitted && next.raw_.RankOf(row.cols[e]) > self_rank) {
        emit(r, 1.0);
        self_emitted = true;
      }
      emit(row.cols[e], row.vals[e]);
    }
    if (!self_emitted) emit(r, 1.0);
    next.adj_.OverrideRow(r, std::move(cols), std::move(vals));
  }

  delta.dirty_feature_rows.reserve(new_feats.size());
  for (const auto& [r, vec] : new_feats) {
    (void)vec;
    delta.dirty_feature_rows.push_back(r);
  }
  std::sort(delta.dirty_feature_rows.begin(), delta.dirty_feature_rows.end());

  // Fold the overlays into fresh bases once they dominate — COW stops
  // paying for itself past that point. The flag tells reordered callers this
  // is the cheap moment to relayout (see BatchDelta::compacted).
  const bool raw_compacted = next.raw_.MaybeCompact();
  const bool adj_compacted = next.adj_.MaybeCompact();
  delta.compacted = raw_compacted || adj_compacted;
  return std::make_pair(std::move(next), std::move(delta));
}

Graph GraphSnapshot::MaterializeGraph() const {
  const int n = num_nodes();
  // Rebuild in EXTERNAL space — Graph::Create sorts CSR entries by external
  // id there, which is exactly this snapshot's stored (rank) order — then
  // re-apply the permutation, so the result's caches are bitwise identical
  // to the layout a fresh FromGraph of this topology would carry.
  std::vector<Edge> edges;
  edges.reserve(static_cast<size_t>(raw_.nnz() / 2));
  for (int r = 0; r < n; ++r) {
    const DeltaCsr::RowRef row = raw_.Row(r);
    const int src = ToExternal(r);
    for (int64_t e = 0; e < row.nnz; ++e) {
      const int dst = ToExternal(row.cols[e]);
      if (dst > src) edges.push_back({src, dst, row.vals[e]});
    }
  }
  Matrix feats(n, feature_dim_);
  std::vector<int> labels(n);
  for (int ext = 0; ext < n; ++ext) {
    const int r = ToInternal(ext);
    std::memcpy(feats.Row(ext), FeatureRow(r),
                static_cast<size_t>(feature_dim_) * sizeof(double));
    labels[ext] = (*labels_)[r];
  }
  Graph external =
      Graph::Create(n, std::move(edges), /*directed=*/false, std::move(feats),
                    std::move(labels), num_classes_);
  if (perm_ == nullptr) return external;
  return ApplyNodePermutation(external, perm_);
}

ReorderResult GraphSnapshot::Reordered(
    ReorderStrategy strategy, uint64_t seed) const {
  const int n = num_nodes();
  AHG_TRACE_SPAN_ARG("dyn/reorder", n);
  // Topology in external ids. Stored row order is ascending external, so
  // the lists come out sorted without a per-row sort, and the permutation
  // depends only on (logical graph, strategy, seed).
  std::vector<std::vector<int>> neighbors(n);
  for (int r = 0; r < n; ++r) {
    const DeltaCsr::RowRef row = raw_.Row(r);
    std::vector<int>& list = neighbors[ToExternal(r)];
    list.reserve(row.nnz);
    for (int64_t e = 0; e < row.nnz; ++e) list.push_back(ToExternal(row.cols[e]));
  }
  NodePermutation next_perm =
      ComputeReorderFromAdjacency(neighbors, strategy, seed);

  ReorderResult out;
  out.remap.resize(n);
  for (int r = 0; r < n; ++r) {
    out.remap[r] = next_perm.to_internal[ToExternal(r)];
  }
  const std::vector<int>& remap = out.remap;

  GraphSnapshot& next = out.snapshot;
  next.version_ = version_ + 1;
  next.feature_dim_ = feature_dim_;
  next.num_classes_ = num_classes_;
  next.perm_ = std::make_shared<const NodePermutation>(std::move(next_perm));

  // Rebuild both CSRs in the new row order, overlays folded in. Entry order
  // within each row is copied verbatim: it was ascending external before,
  // and external ids don't move, so it is still ascending (new) rank —
  // bitwise conformance survives the relayout.
  auto rebuilt = [&](const DeltaCsr& src) {
    std::vector<int64_t> row_ptr(n + 1, 0);
    for (int r = 0; r < n; ++r) row_ptr[remap[r] + 1] = src.Row(r).nnz;
    for (int i = 0; i < n; ++i) row_ptr[i + 1] += row_ptr[i];
    std::vector<int> col_idx(src.nnz());
    std::vector<double> values(src.nnz());
    for (int r = 0; r < n; ++r) {
      const DeltaCsr::RowRef row = src.Row(r);
      int64_t at = row_ptr[remap[r]];
      for (int64_t e = 0; e < row.nnz; ++e, ++at) {
        col_idx[at] = remap[row.cols[e]];
        values[at] = row.vals[e];
      }
    }
    return DeltaCsr(std::make_shared<const SparseMatrix>(
        SparseMatrix::FromCsrParts(n, n, std::move(row_ptr),
                                   std::move(col_idx), std::move(values))));
  };
  next.raw_ = rebuilt(raw_);
  next.adj_ = rebuilt(adj_);
  auto rank = RankVector(next.perm_);
  next.raw_.SetColRank(rank);
  next.adj_.SetColRank(rank);

  next.deg_.resize(n);
  for (int r = 0; r < n; ++r) next.deg_[remap[r]] = deg_[r];

  auto feats = std::make_shared<Matrix>(n, feature_dim_);
  std::vector<int> labels(n);
  for (int r = 0; r < n; ++r) {
    std::memcpy(feats->Row(remap[r]), FeatureRow(r),
                static_cast<size_t>(feature_dim_) * sizeof(double));
    labels[remap[r]] = (*labels_)[r];
  }
  next.feat_base_ = std::move(feats);
  next.labels_ = std::make_shared<const std::vector<int>>(std::move(labels));
  return out;
}

}  // namespace ahg::dyn
