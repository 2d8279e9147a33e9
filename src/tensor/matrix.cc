#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "kernels/kernel_ops.h"
#include "obs/trace.h"
#include "tensor/aligned.h"
#include "tensor/alloc_tracker.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ahg {
namespace {

// Keeps freed tensor buffers in the process heap. glibc serves blocks above
// a dynamic mmap threshold (128 KiB at first) with mmap and trims the heap
// top past 128 KiB free, so every training step would hand its freed
// activations back to the kernel and fault them in again on the next
// forward. Raising both thresholds (either one alone turns the dynamic
// threshold off, which made trimming worse) lets buffers up to 32 MiB,
// glibc's 64-bit maximum, be reused from the arenas. Process-wide; other
// allocators keep their defaults.
bool SetHeapPolicy() {
#ifdef __GLIBC__
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 128 << 20);
#endif
  return true;
}

}  // namespace

void Matrix::Allocate(int rows, int cols, bool zero) {
  AHG_CHECK_GE(rows, 0);
  AHG_CHECK_GE(cols, 0);
  rows_ = rows;
  cols_ = cols;
  const int64_t n = size();
  if (n > 0) {
    [[maybe_unused]] static const bool heap_policy_set = SetHeapPolicy();
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

Matrix Matrix::Uninitialized(int rows, int cols) {
  Matrix m;
  m.Allocate(rows, cols, /*zero=*/false);
  return m;
}

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

KeepMask::KeepMask(int64_t n, double p, Rng* rng)
    : size_(n),
      scale_(1.0 / (1.0 - p)),
      words_(static_cast<size_t>((n + 63) / 64)),
      tracked_(words_.size() * sizeof(uint64_t)) {
  AHG_CHECK_MSG(p > 0.0 && p < 1.0, "dropout rate " << p);
  RngState state = rng->ExportState();
  kernels::ActiveOps().keep_mask(state.s, Rng::BernoulliThreshold(p), n,
                                 words_.data());
  rng->RestoreState(state);
}

Matrix ApplyKeepMask(const Matrix& a, const KeepMask& mask) {
  AHG_CHECK_EQ(a.size(), mask.size());
  Matrix out = Matrix::Uninitialized(a.rows(), a.cols());
  kernels::ActiveOps().masked_scale(a.data(), mask.words(), 0, a.size(),
                                    mask.scale(), out.data());
  return out;
}

namespace {

// The masked GEMMs form 2048 rows of 48 columns at a time (768 KB, an
// L2-resident block); wider rows get fewer, a multiple of 8. The values
// match the unmasked GEMM's whatever the blocks, but where two NaNs meet
// an add returns the one the compiler put first, which can differ between
// tile shapes. A multiple of 8 starts a new row tile on every tier
// (kernels/gemm_tiles.h), so MatMul's rows keep the tiles they take
// unmasked, NaN payloads included. MatMulTransA's blocks narrower than its
// 2048-row chunk each choose their own walk, so there a NaN's payload can
// differ from the unmasked product's.
constexpr int kKeepBlockDoubles = 2048 * 48;
constexpr int kKeepBlockAlign = 8;

// Row blocks of a GEMM's left operand: a's own rows, or, under a keep-mask,
// those rows with the mask applied, formed in one scratch block that the
// worker reuses. Workers build their own; the scratch is a tracked Matrix.
class RowSource {
 public:
  RowSource(const kernels::TierOps& ops, const Matrix& a, const KeepMask* mask,
            int64_t max_rows)
      : ops_(ops),
        a_(a),
        mask_(mask),
        block_rows_(std::max<int64_t>(1, max_rows)) {
    if (mask_ == nullptr) return;
    AHG_CHECK_EQ(a.size(), mask_->size());
    const int fit = kKeepBlockDoubles / std::max(1, a.cols());
    block_rows_ = std::min<int64_t>(
        block_rows_,
        std::max(kKeepBlockAlign, fit / kKeepBlockAlign * kKeepBlockAlign));
    scratch_ = Matrix::Uninitialized(static_cast<int>(block_rows_), a.cols());
  }

  // Rows one block may span (at most max_rows).
  int64_t block_rows() const { return block_rows_; }

  // Rows [r0, r0 + count) of the operand, count <= block_rows().
  const double* Rows(int64_t r0, int64_t count) {
    if (mask_ == nullptr) return a_.Row(static_cast<int>(r0));
    ops_.masked_scale(a_.Row(static_cast<int>(r0)), mask_->words(),
                      r0 * a_.cols(), count * a_.cols(), mask_->scale(),
                      scratch_.data());
    return scratch_.data();
  }

 private:
  const kernels::TierOps& ops_;
  const Matrix& a_;
  const KeepMask* mask_;
  int64_t block_rows_;
  Matrix scratch_;
};

// C = (A, masked when `mask`) * B.
Matrix MatMulRows(const Matrix& a, const KeepMask* mask, const Matrix& b) {
  AHG_CHECK_EQ(a.cols(), b.rows());
  AHG_TRACE_SPAN_ARG("tensor/matmul",
                     int64_t{a.rows()} * a.cols() * b.cols());
  Matrix c(a.rows(), b.cols());
  // Row-parallel and cache-blocked over the reduction dimension: the outer
  // k-panel loop keeps a kGemmPanel x b.cols() slab of B hot in cache while
  // the chunk's rows stream through it in register tiles; between panels a
  // tile goes back to c. Each output row is owned by one worker, and each
  // c[i][j] still accumulates k in globally ascending order (panels ascend,
  // k ascends within a panel), so the result is bitwise identical to the
  // unblocked i-k-j kernel at every thread count and every dispatch tier
  // (see kernels/kernel_ops.h); a masked operand's row blocks only split
  // the rows further. The tier table is resolved on the calling thread
  // before the parallel region so every worker uses the same kernel.
  const kernels::TierOps& ops = kernels::ActiveOps();
  const int64_t work_per_row = int64_t{a.cols()} * b.cols();
  ParallelForChunked(a.rows(), work_per_row, [&](int64_t begin, int64_t end) {
    RowSource source(ops, a, mask, end - begin);
    for (int64_t r0 = begin; r0 < end; r0 += source.block_rows()) {
      const int64_t count = std::min(source.block_rows(), end - r0);
      const double* rows = source.Rows(r0, count);
      for (int k0 = 0; k0 < a.cols(); k0 += kernels::kGemmPanel) {
        const int kc = std::min(kernels::kGemmPanel, a.cols() - k0);
        ops.gemm(rows + k0, a.cols(), static_cast<int>(count), kc, b.Row(k0),
                 b.cols(), b.cols(), c.Row(static_cast<int>(r0)), c.cols(),
                 /*skip_zeros=*/true);
      }
    }
  });
  return c;
}

// C = (A, masked when `mask`)^T * B.
Matrix MatMulTransARows(const Matrix& a, const KeepMask* mask,
                        const Matrix& b) {
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
  // so results are bitwise identical for every thread count. A masked
  // operand's row blocks split a chunk without reordering it: gemm_ta
  // accumulates into the partial, k ascending.
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
    RowSource source(ops, a, mask, std::min(n, kReduceChunk));
    for (int64_t p = begin; p < end; ++p) {
      // local[i][:] += a[k][i] * b[k][:] for every nonzero a[k][i] of the
      // chunk, each local entry accumulating k in ascending order.
      const int64_t k1 = std::min(n, (p + 1) * kReduceChunk);
      for (int64_t k0 = p * kReduceChunk; k0 < k1;
           k0 += source.block_rows()) {
        const int64_t count = std::min(source.block_rows(), k1 - k0);
        ops.gemm_ta(source.Rows(k0, count), a.cols(), static_cast<int>(count),
                    a.cols(), b.Row(static_cast<int>(k0)), b.cols(), b.cols(),
                    partial[p].data(), b.cols());
      }
    }
  });
  for (int64_t p = 0; p < num_chunks; ++p) c.AddInPlace(partial[p]);
  return c;
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  return MatMulRows(a, nullptr, b);
}

Matrix MatMulKeepMask(const Matrix& a, const KeepMask& mask, const Matrix& b) {
  return MatMulRows(a, &mask, b);
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  return MatMulTransARows(a, nullptr, b);
}

Matrix MatMulTransAKeepMask(const Matrix& a, const KeepMask& mask,
                            const Matrix& b) {
  return MatMulTransARows(a, &mask, b);
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  AHG_CHECK_EQ(a.cols(), b.cols());
  AHG_TRACE_SPAN_ARG("tensor/matmul_tb",
                     int64_t{a.rows()} * a.cols() * b.rows());
  Matrix c(a.rows(), b.rows());
  // B^T is packed into a stack buffer, one kGemmPanel x kPackCols block at
  // a time, and run through the GEMM tiles with zero-skip off: each c[i][j]
  // is a dot product that adds every term (0 * inf gives NaN), k ascending
  // across the panels, so values are bitwise identical to the
  // one-j-at-a-time dot. Each worker packs its own copy; a heap copy would
  // be one more allocation per call.
  constexpr int kPackCols = 32;
  const kernels::TierOps& ops = kernels::ActiveOps();
  const int64_t work_per_row = int64_t{a.cols()} * b.rows();
  ParallelForChunked(a.rows(), work_per_row, [&](int64_t begin, int64_t end) {
    const int first = static_cast<int>(begin);
    double bt[kernels::kGemmPanel * kPackCols];
    for (int j0 = 0; j0 < b.rows(); j0 += kPackCols) {
      const int jw = std::min(kPackCols, b.rows() - j0);
      for (int k0 = 0; k0 < a.cols(); k0 += kernels::kGemmPanel) {
        const int kc = std::min(kernels::kGemmPanel, a.cols() - k0);
        for (int j = 0; j < jw; ++j) {
          const double* brow = b.Row(j0 + j) + k0;
          for (int k = 0; k < kc; ++k) bt[k * jw + j] = brow[k];
        }
        ops.gemm(a.Row(first) + k0, a.cols(), static_cast<int>(end - begin),
                 kc, bt, jw, jw, c.Row(first) + j0, c.cols(),
                 /*skip_zeros=*/false);
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
