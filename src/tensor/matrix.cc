#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "kernels/kernel_ops.h"
#include "obs/trace.h"
#include "tensor/aligned.h"
#include "tensor/alloc_tracker.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ahg {

void Matrix::Allocate(int rows, int cols, bool zero) {
  AHG_CHECK_GE(rows, 0);
  AHG_CHECK_GE(cols, 0);
  rows_ = rows;
  cols_ = cols;
  const int64_t n = size();
  if (n > 0) {
    data_ = AlignedAllocDoubles(n, zero);
    AllocTracker::Add(static_cast<size_t>(n) * sizeof(double));
  }
}

void Matrix::Release() {
  if (data_ != nullptr) {
    AllocTracker::Remove(static_cast<size_t>(size()) * sizeof(double));
    AlignedFreeDoubles(data_);
    data_ = nullptr;
  }
  rows_ = 0;
  cols_ = 0;
}

Matrix::Matrix(int rows, int cols) { Allocate(rows, cols); }

Matrix::Matrix(const Matrix& other) {
  Allocate(other.rows_, other.cols_, /*zero=*/false);
  if (size() > 0) std::memcpy(data_, other.data_, size() * sizeof(double));
}

Matrix& Matrix::operator=(const Matrix& other) {
  if (this == &other) return *this;
  Release();
  Allocate(other.rows_, other.cols_, /*zero=*/false);
  if (size() > 0) std::memcpy(data_, other.data_, size() * sizeof(double));
  return *this;
}

Matrix::Matrix(Matrix&& other) noexcept
    : rows_(other.rows_), cols_(other.cols_), data_(other.data_) {
  other.rows_ = 0;
  other.cols_ = 0;
  other.data_ = nullptr;
}

Matrix& Matrix::operator=(Matrix&& other) noexcept {
  if (this == &other) return *this;
  Release();
  rows_ = other.rows_;
  cols_ = other.cols_;
  data_ = other.data_;
  other.rows_ = 0;
  other.cols_ = 0;
  other.data_ = nullptr;
  return *this;
}

Matrix::~Matrix() { Release(); }

Matrix Matrix::Constant(int rows, int cols, double value) {
  Matrix m(rows, cols);
  m.Fill(value);
  return m;
}

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Gaussian(int rows, int cols, double stddev, Rng* rng) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data_[i] = rng->Normal(0.0, stddev);
  return m;
}

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(static_cast<int>(rows.size()), static_cast<int>(rows[0].size()));
  for (int r = 0; r < m.rows(); ++r) {
    AHG_CHECK_EQ(static_cast<int>(rows[r].size()), m.cols());
    std::copy(rows[r].begin(), rows[r].end(), m.Row(r));
  }
  return m;
}

void Matrix::Fill(double value) {
  std::fill(data_, data_ + size(), value);
}

void Matrix::AddInPlace(const Matrix& other) {
  AHG_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  kernels::ActiveOps().add_inplace(data_, other.data_, size());
}

void Matrix::AxpyInPlace(double alpha, const Matrix& other) {
  AHG_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  kernels::ActiveOps().axpy_inplace(data_, alpha, other.data_, size());
}

void Matrix::ScaleInPlace(double alpha) {
  kernels::ActiveOps().scale_inplace(data_, alpha, size());
}

int Matrix::ArgMaxRow(int r) const {
  AHG_CHECK(r >= 0 && r < rows_ && cols_ > 0);
  const double* row = Row(r);
  int best = 0;
  for (int c = 1; c < cols_; ++c) {
    if (row[c] > row[best]) best = c;
  }
  return best;
}

double Matrix::Sum() const {
  double total = 0.0;
  for (int64_t i = 0; i < size(); ++i) total += data_[i];
  return total;
}

double Matrix::SquaredNorm() const {
  double total = 0.0;
  for (int64_t i = 0; i < size(); ++i) total += data_[i] * data_[i];
  return total;
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  AHG_CHECK_EQ(a.cols(), b.rows());
  AHG_TRACE_SPAN_ARG("tensor/matmul",
                     int64_t{a.rows()} * a.cols() * b.cols());
  Matrix c(a.rows(), b.cols());
  // Row-parallel and cache-blocked over the reduction dimension: the outer
  // k-panel loop keeps a kc x b.cols() slab of B hot in cache while every
  // row of the chunk streams through it. Each output row is owned by one
  // worker, and each c[i][j] still accumulates k in globally ascending
  // order (panels ascend, k ascends within a panel), so the result is
  // bitwise identical to the unblocked i-k-j kernel at every thread count
  // and every dispatch tier (see kernels/kernel_ops.h). The tier table is
  // resolved on the calling thread before the parallel region so every
  // worker uses the same kernel.
  constexpr int kpanel = 128;  // rows of B kept hot per slab
  const kernels::TierOps& ops = kernels::ActiveOps();
  const int64_t work_per_row = int64_t{a.cols()} * b.cols();
  ParallelForChunked(a.rows(), work_per_row, [&](int64_t begin, int64_t end) {
    for (int k0 = 0; k0 < a.cols(); k0 += kpanel) {
      const int k1 = std::min(a.cols(), k0 + kpanel);
      for (int64_t i = begin; i < end; ++i) {
        ops.gemm_panel(a.Row(static_cast<int>(i)) + k0, k1 - k0, b.Row(k0),
                       b.cols(), b.cols(), c.Row(static_cast<int>(i)));
      }
    }
  });
  return c;
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  AHG_CHECK_EQ(a.rows(), b.rows());
  AHG_TRACE_SPAN_ARG("tensor/matmul_ta",
                     int64_t{a.rows()} * a.cols() * b.cols());
  Matrix c(a.cols(), b.cols());
  // Every output entry sums over all of a's rows, so rows of c cannot be
  // handed to one worker each without scattering. Instead partition the
  // reduction dimension into chunks of a *fixed* size (independent of the
  // thread count), give each worker whole chunks to accumulate privately,
  // and reduce the partials in chunk order on the calling thread. The
  // chunk grid and the reduction order are pure functions of the shapes,
  // so results are bitwise identical for every thread count.
  constexpr int64_t kReduceChunk = 2048;  // rows of a per partial
  const int64_t n = a.rows();
  const int64_t num_chunks = std::max<int64_t>(1, (n + kReduceChunk - 1) / kReduceChunk);
  const int64_t work_per_chunk =
      kReduceChunk * int64_t{a.cols()} * b.cols();
  // Partials are allocated on the calling thread; workers only fill them.
  std::vector<Matrix> partial;
  partial.reserve(num_chunks);
  for (int64_t p = 0; p < num_chunks; ++p) {
    partial.emplace_back(a.cols(), b.cols());
  }
  const kernels::TierOps& ops = kernels::ActiveOps();
  ParallelForChunked(num_chunks, work_per_chunk,
                     [&](int64_t begin, int64_t end) {
    for (int64_t p = begin; p < end; ++p) {
      Matrix& local = partial[p];
      const int64_t k_end = std::min(n, (p + 1) * kReduceChunk);
      // Rank-1 update local[i][:] += a[k][i] * b[k][:] for every nonzero
      // a[k][i]: one ger_rows call per row of a, so each local entry still
      // accumulates k in ascending order.
      for (int64_t k = p * kReduceChunk; k < k_end; ++k) {
        ops.ger_rows(a.Row(static_cast<int>(k)), a.cols(),
                     b.Row(static_cast<int>(k)), b.cols(), local.data(),
                     b.cols());
      }
    }
  });
  for (int64_t p = 0; p < num_chunks; ++p) c.AddInPlace(partial[p]);
  return c;
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  AHG_CHECK_EQ(a.cols(), b.cols());
  AHG_TRACE_SPAN_ARG("tensor/matmul_tb",
                     int64_t{a.rows()} * a.cols() * b.rows());
  Matrix c(a.rows(), b.rows());
  // Register-blocked over j: four dot products share each arow[k] load.
  // Every dot still accumulates its own k in ascending order (the SIMD dot4
  // transposes 4x4 blocks of B so each lane adds one k term at a time), so
  // values are bitwise identical to the one-j-at-a-time kernel.
  const kernels::TierOps& ops = kernels::ActiveOps();
  const int64_t work_per_row = int64_t{a.cols()} * b.rows();
  ParallelForChunked(a.rows(), work_per_row, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const double* arow = a.Row(static_cast<int>(i));
      double* crow = c.Row(static_cast<int>(i));
      int j = 0;
      for (; j + 4 <= b.rows(); j += 4) {
        ops.dot4(arow, b.Row(j), b.Row(j + 1), b.Row(j + 2), b.Row(j + 3),
                 a.cols(), crow + j);
      }
      for (; j < b.rows(); ++j) {
        const double* brow = b.Row(j);
        double dot = 0.0;
        for (int k = 0; k < a.cols(); ++k) dot += arow[k] * brow[k];
        crow[j] = dot;
      }
    }
  });
  return c;
}

Matrix Transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
  return t;
}

Matrix Add(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  c.AddInPlace(b);
  return c;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  c.AxpyInPlace(-1.0, b);
  return c;
}

Matrix CWiseMul(const Matrix& a, const Matrix& b) {
  AHG_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix c(a.rows(), a.cols());
  kernels::ActiveOps().cwise_mul(a.data(), b.data(), a.size(), c.data());
  return c;
}

Matrix Scale(const Matrix& a, double alpha) {
  Matrix c = a;
  c.ScaleInPlace(alpha);
  return c;
}

Matrix RowSoftmax(const Matrix& a) {
  AHG_TRACE_SPAN_ARG("tensor/row_softmax", int64_t{a.rows()} * a.cols());
  Matrix out(a.rows(), a.cols());
  // Zero-column input: nothing to normalize (and row_max on an empty row
  // would read past the end of a null buffer).
  if (a.cols() == 0) return out;
  // Row-owned, so parallel execution is bitwise identical to sequential.
  // The max is order-independent for NaN-free input and division is exact
  // per lane, so those vectorize; the exp + running sum keeps the scalar
  // accumulation order.
  const kernels::TierOps& ops = kernels::ActiveOps();
  ParallelForChunked(a.rows(), 4 * a.cols(), [&](int64_t begin, int64_t end) {
    for (int64_t ri = begin; ri < end; ++ri) {
      const int r = static_cast<int>(ri);
      const double* in = a.Row(r);
      double* dst = out.Row(r);
      const double max_val = ops.row_max(in, a.cols());
      double total = 0.0;
      for (int c = 0; c < a.cols(); ++c) {
        dst[c] = std::exp(in[c] - max_val);
        total += dst[c];
      }
      ops.div_inplace(dst, a.cols(), total);
    }
  });
  return out;
}

Matrix RowLogSoftmax(const Matrix& a) {
  Matrix out(a.rows(), a.cols());
  if (a.cols() == 0) return out;
  const kernels::TierOps& ops = kernels::ActiveOps();
  ParallelForChunked(a.rows(), 4 * a.cols(), [&](int64_t begin, int64_t end) {
    for (int64_t ri = begin; ri < end; ++ri) {
      const int r = static_cast<int>(ri);
      const double* in = a.Row(r);
      double* dst = out.Row(r);
      const double max_val = ops.row_max(in, a.cols());
      double total = 0.0;
      for (int c = 0; c < a.cols(); ++c) total += std::exp(in[c] - max_val);
      const double log_total = std::log(total) + max_val;
      ops.sub_scalar(in, a.cols(), log_total, dst);
    }
  });
  return out;
}

bool AllClose(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int64_t i = 0; i < a.size(); ++i) {
    if (std::abs(a.data()[i] - b.data()[i]) > tol) return false;
  }
  return true;
}

Matrix GatherRows(const Matrix& src, const std::vector<int>& rows) {
  Matrix out(static_cast<int>(rows.size()), src.cols());
  const size_t row_bytes = static_cast<size_t>(src.cols()) * sizeof(double);
  for (size_t i = 0; i < rows.size(); ++i) {
    const int r = rows[i];
    AHG_CHECK(r >= 0 && r < src.rows());
    std::memcpy(out.Row(static_cast<int>(i)), src.Row(r), row_bytes);
  }
  return out;
}

void ScatterRows(const Matrix& src, const std::vector<int>& rows,
                 Matrix* dst) {
  AHG_CHECK_EQ(src.rows(), static_cast<int>(rows.size()));
  AHG_CHECK_EQ(src.cols(), dst->cols());
  const size_t row_bytes = static_cast<size_t>(src.cols()) * sizeof(double);
  for (size_t i = 0; i < rows.size(); ++i) {
    const int r = rows[i];
    AHG_CHECK(r >= 0 && r < dst->rows());
    std::memcpy(dst->Row(r), src.Row(static_cast<int>(i)), row_bytes);
  }
}

Matrix GrowRows(const Matrix& src, int new_rows) {
  AHG_CHECK_GE(new_rows, src.rows());
  Matrix out(new_rows, src.cols());
  if (src.size() > 0) {
    std::memcpy(out.data(), src.data(),
                static_cast<size_t>(src.size()) * sizeof(double));
  }
  return out;
}

Matrix RemapRows(const Matrix& src, const std::vector<int>& to, int new_rows) {
  AHG_CHECK_EQ(static_cast<int>(to.size()), src.rows());
  Matrix out(new_rows, src.cols());
  const size_t row_bytes = static_cast<size_t>(src.cols()) * sizeof(double);
  for (int r = 0; r < src.rows(); ++r) {
    AHG_CHECK(to[r] >= 0 && to[r] < new_rows);
    std::memcpy(out.Row(to[r]), src.Row(r), row_bytes);
  }
  return out;
}

}  // namespace ahg
