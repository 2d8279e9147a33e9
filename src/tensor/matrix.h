// Dense row-major matrix of doubles plus the BLAS-like kernels the autodiff
// engine is built on. Every buffer is a fresh 64-byte-aligned heap block
// (tensor/aligned.h), freed when the Matrix dies; nothing is pooled or
// recycled. All allocations are reported to AllocTracker so the runtime
// bench can reproduce the paper's peak-memory columns.
#ifndef AUTOHENS_TENSOR_MATRIX_H_
#define AUTOHENS_TENSOR_MATRIX_H_

#include <cstdint>
#include <vector>

#include "tensor/alloc_tracker.h"
#include "util/logging.h"

namespace ahg {

class Rng;

class Matrix {
 public:
  Matrix() = default;

  // Zero-initialized rows x cols matrix.
  Matrix(int rows, int cols);

  Matrix(const Matrix& other);
  Matrix& operator=(const Matrix& other);
  Matrix(Matrix&& other) noexcept;
  Matrix& operator=(Matrix&& other) noexcept;
  ~Matrix();

  static Matrix Zeros(int rows, int cols) { return Matrix(rows, cols); }
  // Not zero-filled: for buffers the caller overwrites before reading.
  static Matrix Uninitialized(int rows, int cols);
  static Matrix Constant(int rows, int cols, double value);
  static Matrix Identity(int n);
  // Entries drawn i.i.d. N(0, stddev^2).
  static Matrix Gaussian(int rows, int cols, double stddev, Rng* rng);
  // Builds a matrix from an explicit row-major initializer (for tests).
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int64_t size() const { return static_cast<int64_t>(rows_) * cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(int r, int c) {
    AHG_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<int64_t>(r) * cols_ + c];
  }
  double operator()(int r, int c) const {
    AHG_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<int64_t>(r) * cols_ + c];
  }

  double* Row(int r) { return data_ + static_cast<int64_t>(r) * cols_; }
  const double* Row(int r) const {
    return data_ + static_cast<int64_t>(r) * cols_;
  }
  double* data() { return data_; }
  const double* data() const { return data_; }

  void Fill(double value);
  void SetZero() { Fill(0.0); }

  // this += other (shapes must match).
  void AddInPlace(const Matrix& other);
  // this += alpha * other.
  void AxpyInPlace(double alpha, const Matrix& other);
  // this *= alpha.
  void ScaleInPlace(double alpha);

  // Column index of the max entry in row r (ties -> lowest index).
  int ArgMaxRow(int r) const;

  // Sum of all entries.
  double Sum() const;
  // Frobenius-norm squared.
  double SquaredNorm() const;

 private:
  // Heap-allocates an aligned buffer (tensor/aligned.h) and reports it to
  // AllocTracker; `zero` is false only for paths that overwrite every
  // entry immediately (copies).
  void Allocate(int rows, int cols, bool zero = true);
  void Release();

  int rows_ = 0;
  int cols_ = 0;
  double* data_ = nullptr;
};

// Inverted dropout's keep-mask over the entries of an n-entry tensor in
// row-major order, one bit each: entry i survives, scaled by scale(), when
// bit i is set, and is multiplied by 0.0 otherwise. The bits are
// AllocTracker-counted, 1/64 of the tensor's bytes.
class KeepMask {
 public:
  // Takes n draws from `rng` in element order, bit i = !rng->Bernoulli(p)
  // for draw i, leaving `rng` where n Bernoulli calls would (the
  // keep_mask kernel, kernels/kernel_ops.h). Requires 0 < p < 1.
  KeepMask(int64_t n, double p, Rng* rng);

  int64_t size() const { return size_; }
  double scale() const { return scale_; }
  const uint64_t* words() const { return words_.data(); }
  bool Keeps(int64_t i) const { return (words_[i >> 6] >> (i & 63)) & 1; }

 private:
  int64_t size_;
  double scale_;
  std::vector<uint64_t> words_;
  TrackedBytes tracked_;
};

// a with the mask applied: out[i] = a[i] * (kept ? scale : 0.0).
Matrix ApplyKeepMask(const Matrix& a, const KeepMask& mask);

// C = A * B.
Matrix MatMul(const Matrix& a, const Matrix& b);
// C = A^T * B.
Matrix MatMulTransA(const Matrix& a, const Matrix& b);
// MatMul(ApplyKeepMask(a, mask), b) and MatMulTransA(ApplyKeepMask(a,
// mask), b), bit for bit, without the masked copy of a: row blocks of it
// are formed in a small cache-resident scratch block and run through the
// same GEMM tiles (and, for TransA, the same reduction chunks).
Matrix MatMulKeepMask(const Matrix& a, const KeepMask& mask, const Matrix& b);
Matrix MatMulTransAKeepMask(const Matrix& a, const KeepMask& mask,
                            const Matrix& b);
// C = A * B^T.
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

Matrix Transpose(const Matrix& a);
Matrix Add(const Matrix& a, const Matrix& b);
Matrix Sub(const Matrix& a, const Matrix& b);
Matrix CWiseMul(const Matrix& a, const Matrix& b);
Matrix Scale(const Matrix& a, double alpha);

// Row-wise softmax (numerically stabilized).
Matrix RowSoftmax(const Matrix& a);
// Row-wise log-softmax (numerically stabilized).
Matrix RowLogSoftmax(const Matrix& a);

// True when max |a - b| <= tol.
bool AllClose(const Matrix& a, const Matrix& b, double tol);

// Masked row gather: out row i is src row rows[i]. Every index must be in
// [0, src.rows()). The serving path uses this to pull queried nodes (and
// the dynamic path to pull dirty rows) out of a cached hidden-state matrix.
Matrix GatherRows(const Matrix& src, const std::vector<int>& rows);

// Masked row scatter: dst row rows[i] = src row i (the inverse of
// GatherRows). Indices must be unique and in range; src must have
// rows.size() rows and dst->cols() columns.
void ScatterRows(const Matrix& src, const std::vector<int>& rows,
                 Matrix* dst);

// Copy of `src` with `new_rows` >= src.rows() rows; the appended tail is
// zero-filled (dynamic graphs growing their feature / hidden matrices on
// AddNode).
Matrix GrowRows(const Matrix& src, int new_rows);

// Moves every row to a new row layout: a `new_rows`-row copy of `src` whose
// row to[r] holds src row r. Rows no source row lands on are zero-filled
// (rows new to the layout). `to` has src.rows() unique entries in
// [0, new_rows). Pure data movement — rows keep their bytes.
Matrix RemapRows(const Matrix& src, const std::vector<int>& to, int new_rows);

}  // namespace ahg

#endif  // AUTOHENS_TENSOR_MATRIX_H_
