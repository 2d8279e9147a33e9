#include "tensor/sparse_matrix.h"

#include <algorithm>
#include <mutex>
#include <string>
#include <vector>

#include "kernels/kernel_ops.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace ahg {

Matrix SpmmRowLoop(int64_t out_rows, int64_t nnz_per_row, const Matrix& x,
                   const std::function<CsrRowRef(int64_t i)>& row_at) {
  Matrix y(static_cast<int>(out_rows), x.cols());
  // Tier table resolved on the calling thread before the parallel region;
  // contiguous row ranges of ~equal row count, each row owned by one worker.
  const kernels::TierOps& ops = kernels::ActiveOps();
  const int64_t work_per_row = std::max<int64_t>(1, nnz_per_row) * x.cols();
  ParallelForChunked(out_rows, work_per_row, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const CsrRowRef row = row_at(i);
      ops.spmm_row(row.vals, row.cols, row.nnz, x.data(), x.cols(), x.cols(),
                   y.Row(static_cast<int>(i)));
    }
  });
  return y;
}

SparseMatrix SparseMatrix::BuildFromValidCoo(int rows, int cols,
                                             std::vector<CooEntry> entries) {
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  std::sort(entries.begin(), entries.end(),
            [](const CooEntry& a, const CooEntry& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(entries.size());
  m.values_.reserve(entries.size());
  for (size_t i = 0; i < entries.size();) {
    const CooEntry& e = entries[i];
    double value = 0.0;
    size_t j = i;
    // Merge duplicates of the same coordinate.
    while (j < entries.size() && entries[j].row == e.row &&
           entries[j].col == e.col) {
      value += entries[j].value;
      ++j;
    }
    m.col_idx_.push_back(e.col);
    m.values_.push_back(value);
    m.row_ptr_[e.row + 1] += 1;
    i = j;
  }
  for (int r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  // CSR arrays are the resident footprint of graph structure; report them
  // so AllocTracker peaks cover sparse state, not just dense Matrix buffers
  // (the partition-scale bench depends on this for honest per-part totals).
  m.tracked_.Reset(m.row_ptr_.size() * sizeof(int64_t) +
                   m.col_idx_.size() * sizeof(int) +
                   m.values_.size() * sizeof(double));
  return m;
}

SparseMatrix SparseMatrix::FromCoo(int rows, int cols,
                                   std::vector<CooEntry> entries) {
  AHG_CHECK_GE(rows, 0);
  AHG_CHECK_GE(cols, 0);
  for (const CooEntry& e : entries) {
    AHG_CHECK_MSG(e.row >= 0 && e.row < rows && e.col >= 0 && e.col < cols,
                  "entry (" << e.row << ", " << e.col << ") outside " << rows
                            << " x " << cols);
  }
  return BuildFromValidCoo(rows, cols, std::move(entries));
}

SparseMatrix SparseMatrix::FromCsrParts(int rows, int cols,
                                        std::vector<int64_t> row_ptr,
                                        std::vector<int> col_idx,
                                        std::vector<double> values) {
  AHG_CHECK_GE(rows, 0);
  AHG_CHECK_GE(cols, 0);
  AHG_CHECK_EQ(static_cast<int64_t>(row_ptr.size()),
               static_cast<int64_t>(rows) + 1);
  AHG_CHECK_EQ(row_ptr.empty() ? 0 : row_ptr.front(), 0);
  AHG_CHECK_EQ(row_ptr.back(), static_cast<int64_t>(col_idx.size()));
  AHG_CHECK_EQ(col_idx.size(), values.size());
  for (int r = 0; r < rows; ++r) {
    AHG_CHECK_LE(row_ptr[r], row_ptr[r + 1]);
  }
  for (int c : col_idx) AHG_CHECK(c >= 0 && c < cols);
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  m.tracked_.Reset(m.row_ptr_.size() * sizeof(int64_t) +
                   m.col_idx_.size() * sizeof(int) +
                   m.values_.size() * sizeof(double));
  return m;
}

StatusOr<SparseMatrix> SparseMatrix::FromCooChecked(
    int rows, int cols, std::vector<CooEntry> entries) {
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument("negative sparse matrix shape " +
                                   std::to_string(rows) + " x " +
                                   std::to_string(cols));
  }
  for (const CooEntry& e : entries) {
    if (e.row < 0 || e.row >= rows || e.col < 0 || e.col >= cols) {
      return Status::InvalidArgument(
          "coo entry (" + std::to_string(e.row) + ", " +
          std::to_string(e.col) + ") outside " + std::to_string(rows) +
          " x " + std::to_string(cols));
    }
  }
  return BuildFromValidCoo(rows, cols, std::move(entries));
}

Matrix SparseMatrix::Spmm(const Matrix& x) const {
  AHG_CHECK_EQ(x.rows(), cols_);
  AHG_TRACE_SPAN_ARG("tensor/spmm", nnz() * x.cols());
  return SpmmRowLoop(rows_, rows_ > 0 ? nnz() / rows_ : 0, x,
                     [this](int64_t r) { return Row(static_cast<int>(r)); });
}

Matrix SparseMatrix::SpmmRows(const std::vector<int>& rows,
                              const Matrix& x) const {
  AHG_CHECK_EQ(x.rows(), cols_);
  AHG_TRACE_SPAN_ARG("tensor/spmm_rows",
                     static_cast<int64_t>(rows.size()) * x.cols());
  return SpmmRowLoop(static_cast<int64_t>(rows.size()),
                     rows_ > 0 ? nnz() / rows_ : 0, x,
                     [this, &rows](int64_t i) { return Row(rows[i]); });
}

Matrix SparseMatrix::SpmmTransposed(const Matrix& x) const {
  AHG_CHECK_EQ(x.rows(), rows_);
  // The scatter form (y[col] += ...) cannot be row-partitioned, so run the
  // gather form on the cached transpose: output row j accumulates sources in
  // increasing original-row order — the same summation order as the scatter
  // loop, hence bitwise identical to it, and each row is worker-owned.
  return TransposedCached().Spmm(x);
}

SparseMatrix SparseMatrix::Transposed() const {
  std::vector<CooEntry> entries;
  entries.reserve(nnz());
  for (int r = 0; r < rows_; ++r) {
    for (int64_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      entries.push_back({col_idx_[i], r, values_[i]});
    }
  }
  return FromCoo(cols_, rows_, std::move(entries));
}

const SparseMatrix& SparseMatrix::TransposedCached() const {
  // One process-wide mutex guards lazy publication for all instances;
  // builds are rare (once per adjacency) and the post-init critical section
  // is a pointer copy.
  static std::mutex mu;
  std::shared_ptr<const SparseMatrix> cached;
  {
    std::lock_guard<std::mutex> lock(mu);
    cached = transpose_cache_;
  }
  if (cached == nullptr) {
    auto built = std::make_shared<const SparseMatrix>(Transposed());
    std::lock_guard<std::mutex> lock(mu);
    if (transpose_cache_ == nullptr) transpose_cache_ = std::move(built);
    cached = transpose_cache_;
  }
  return *cached;
}

std::vector<double> SparseMatrix::RowSums() const {
  std::vector<double> sums(rows_, 0.0);
  for (int r = 0; r < rows_; ++r) {
    for (int64_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      sums[r] += values_[i];
    }
  }
  return sums;
}

Matrix SparseMatrix::ToDense() const {
  Matrix d(rows_, cols_);
  for (int r = 0; r < rows_; ++r) {
    for (int64_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      d(r, col_idx_[i]) += values_[i];
    }
  }
  return d;
}

}  // namespace ahg
