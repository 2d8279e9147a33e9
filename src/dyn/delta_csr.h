// Copy-on-write CSR matrix for dynamic-graph snapshots.
//
// A DeltaCsr is a base SparseMatrix (shared, immutable) plus a per-row
// overlay: rows whose adjacency changed since the base was built own a
// freshly allocated RowStore, every other row reads straight out of the
// base's CSR arrays. Copying a DeltaCsr copies the overlay map of
// shared_ptrs — O(#overridden rows) — so producing snapshot version v+1
// from v reallocates only the rows a mutation batch touched, never the
// full CSR. AddNode grows rows() past the base; such rows are empty until
// overridden.
//
// SpMM determinism: Spmm and SpmmRows run every row through SpmmRowLoop
// (tensor/sparse_matrix.h), the loop SparseMatrix::Spmm runs: the tier's
// spmm_row kernel accumulates each output element over the row's entries
// in stored order, from +0.0. So a row-subset product is bitwise identical
// to the corresponding rows of the full product, and both match
// SparseMatrix::Spmm on the materialized matrix at every tier and thread
// count. This is the property the incremental-refresh oracle
// (incremental == cold full recompute) rests on.
//
// When the overlay outgrows kCompactionFraction of the rows, Compact()
// folds everything into a new base — the COW savings are gone at that
// point and a flat CSR scans faster.
#ifndef AUTOHENS_DYN_DELTA_CSR_H_
#define AUTOHENS_DYN_DELTA_CSR_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/sparse_matrix.h"

namespace ahg::dyn {

class DeltaCsr {
 public:
  // One row's view: `nnz` entries with ascending column RANK (see
  // SetColRank; rank is the column id itself when no rank is set).
  using RowRef = CsrRowRef;

  // Overlay fraction beyond which Compact() is worth calling (see
  // MaybeCompact).
  static constexpr double kCompactionFraction = 0.25;

  DeltaCsr() = default;

  // Wraps an existing CSR as the shared immutable base.
  explicit DeltaCsr(std::shared_ptr<const SparseMatrix> base);

  // Copying shares the base and every overlay row (shallow, O(#overrides));
  // the copy can then override rows independently.
  DeltaCsr(const DeltaCsr&) = default;
  DeltaCsr& operator=(const DeltaCsr&) = default;
  DeltaCsr(DeltaCsr&&) = default;
  DeltaCsr& operator=(DeltaCsr&&) = default;

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int64_t nnz() const { return nnz_; }

  // Rows currently backed by overlay storage instead of the base.
  int overridden_rows() const { return static_cast<int>(overrides_.size()); }
  double overlay_fraction() const {
    return rows_ == 0 ? 0.0 : static_cast<double>(overrides_.size()) / rows_;
  }

  RowRef Row(int r) const;

  // Replaces row r's storage (cols ascending by rank, no duplicates). Only
  // this row is reallocated; all other rows keep sharing their storage.
  void OverrideRow(int r, std::vector<int> cols, std::vector<double> vals);

  // Declares the storage order of this matrix's rows: entries are sorted by
  // rank[col] instead of by col. Reordered snapshots (graph/reorder.h) set
  // rank = to_external so every row keeps accumulating in ascending
  // EXTERNAL id order — the rank-order invariant that makes reordered
  // serving bitwise identical. Columns >= rank->size() (freshly grown
  // nodes) rank as themselves, matching NodePermutation::ExtendedTo.
  // Affects OverrideRow validation and callers' binary searches only; a
  // null rank (the default) means plain ascending-column order.
  void SetColRank(std::shared_ptr<const std::vector<int>> rank) {
    col_rank_ = std::move(rank);
  }
  const std::vector<int>* col_rank() const { return col_rank_.get(); }

  // Rank of column id c under the current rank vector (c itself when none
  // is set or c is beyond it).
  int64_t RankOf(int c) const {
    return col_rank_ != nullptr && c < static_cast<int>(col_rank_->size())
               ? (*col_rank_)[c]
               : c;
  }

  // Grows the logical shape (AddNode); new rows are empty. Never shrinks.
  void Grow(int rows, int cols);

  // Y = this * X. Row-parallel with the same per-row accumulation order for
  // every thread count (see file comment).
  Matrix Spmm(const Matrix& x) const;

  // Output row i is (this * X) row rows[i]; bitwise identical to those rows
  // of Spmm(x).
  Matrix SpmmRows(const std::vector<int>& rows, const Matrix& x) const;

  // Flat CSR copy of the current state. Stored entry order is preserved
  // row by row (rank order on reordered snapshots), never re-sorted.
  SparseMatrix Materialize() const;

  // Folds base + overlay into a fresh base (clearing the overlay) when the
  // overlay fraction reaches kCompactionFraction — AT the documented
  // threshold, not strictly above it. Returns true if it compacted.
  bool MaybeCompact();

 private:
  struct RowStore {
    std::vector<int> cols;
    std::vector<double> vals;
  };

  int rows_ = 0;
  int cols_ = 0;
  int64_t nnz_ = 0;
  std::shared_ptr<const SparseMatrix> base_;
  std::unordered_map<int, std::shared_ptr<const RowStore>> overrides_;
  std::shared_ptr<const std::vector<int>> col_rank_;
};

}  // namespace ahg::dyn

#endif  // AUTOHENS_DYN_DELTA_CSR_H_
