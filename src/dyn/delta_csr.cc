#include "dyn/delta_csr.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"

namespace ahg::dyn {

DeltaCsr::DeltaCsr(std::shared_ptr<const SparseMatrix> base)
    : base_(std::move(base)) {
  AHG_CHECK(base_ != nullptr);
  rows_ = base_->rows();
  cols_ = base_->cols();
  nnz_ = base_->nnz();
}

DeltaCsr::RowRef DeltaCsr::Row(int r) const {
  AHG_CHECK(r >= 0 && r < rows_);
  auto it = overrides_.find(r);
  if (it != overrides_.end()) {
    const RowStore& store = *it->second;
    return {store.cols.data(), store.vals.data(),
            static_cast<int64_t>(store.cols.size())};
  }
  if (base_ != nullptr && r < base_->rows()) return base_->Row(r);
  return {};  // grown row, never overridden: empty
}

void DeltaCsr::OverrideRow(int r, std::vector<int> cols,
                           std::vector<double> vals) {
  AHG_CHECK(r >= 0 && r < rows_);
  AHG_CHECK_EQ(cols.size(), vals.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    AHG_CHECK(cols[i] >= 0 && cols[i] < cols_);
    // Ascending rank, no dups (rank == column id when no rank is set).
    if (i > 0) AHG_CHECK_LT(RankOf(cols[i - 1]), RankOf(cols[i]));
  }
  nnz_ -= Row(r).nnz;
  nnz_ += static_cast<int64_t>(cols.size());
  auto store = std::make_shared<RowStore>();
  store->cols = std::move(cols);
  store->vals = std::move(vals);
  overrides_[r] = std::move(store);
}

void DeltaCsr::Grow(int rows, int cols) {
  AHG_CHECK_GE(rows, rows_);
  AHG_CHECK_GE(cols, cols_);
  rows_ = rows;
  cols_ = cols;
}

Matrix DeltaCsr::Spmm(const Matrix& x) const {
  AHG_CHECK_EQ(x.rows(), cols_);
  AHG_TRACE_SPAN_ARG("dyn/delta_spmm", nnz_ * x.cols());
  return SpmmRowLoop(rows_, rows_ > 0 ? nnz_ / rows_ : 0, x,
                     [this](int64_t r) { return Row(static_cast<int>(r)); });
}

Matrix DeltaCsr::SpmmRows(const std::vector<int>& rows,
                          const Matrix& x) const {
  AHG_CHECK_EQ(x.rows(), cols_);
  AHG_TRACE_SPAN_ARG("dyn/delta_spmm_rows",
                     static_cast<int64_t>(rows.size()) * x.cols());
  return SpmmRowLoop(static_cast<int64_t>(rows.size()),
                     rows_ > 0 ? nnz_ / rows_ : 0, x,
                     [this, &rows](int64_t i) { return Row(rows[i]); });
}

SparseMatrix DeltaCsr::Materialize() const {
  // Direct row-by-row copy through FromCsrParts: FromCoo would re-sort
  // entries by column id, destroying the stored (rank) order that reordered
  // snapshots' bitwise-conformance rests on.
  std::vector<int64_t> row_ptr(rows_ + 1, 0);
  for (int r = 0; r < rows_; ++r) row_ptr[r + 1] = row_ptr[r] + Row(r).nnz;
  AHG_CHECK_EQ(row_ptr[rows_], nnz_);
  std::vector<int> col_idx(nnz_);
  std::vector<double> values(nnz_);
  for (int r = 0; r < rows_; ++r) {
    const RowRef row = Row(r);
    std::copy(row.cols, row.cols + row.nnz, col_idx.data() + row_ptr[r]);
    std::copy(row.vals, row.vals + row.nnz, values.data() + row_ptr[r]);
  }
  return SparseMatrix::FromCsrParts(rows_, cols_, std::move(row_ptr),
                                    std::move(col_idx), std::move(values));
}

bool DeltaCsr::MaybeCompact() {
  // `<` so compaction fires AT the documented 25% threshold, not only
  // strictly above it (an overlay of exactly rows/4 rows compacts).
  if (overlay_fraction() < kCompactionFraction) return false;
  AHG_TRACE_SPAN_ARG("dyn/delta_compact", nnz_);
  base_ = std::make_shared<const SparseMatrix>(Materialize());
  overrides_.clear();
  return true;
}

}  // namespace ahg::dyn
