// Determinism guarantee of the row-parallel numeric kernels: for every
// thread count the parallel Spmm / SpmmTransposed / dense matmul /
// row-softmax outputs must be bitwise identical to the sequential
// reference, because each output row (or fixed reduction chunk) is owned by
// exactly one worker and accumulated in a fixed order.
//
// The min-grain threshold is dropped to 1 so even test-sized matrices take
// the threaded path; thread counts beyond the core count simply
// oversubscribe, which the guarantee must also survive.
#include <cstring>
#include <limits>
#include <vector>

#include "autodiff/ops.h"
#include "gtest/gtest.h"
#include "tensor/matrix.h"
#include "tensor/sparse_matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ahg {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 7};

// Bitwise comparison (not AllClose): determinism, not approximation.
void ExpectBitwiseEqual(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  if (a.size() == 0) return;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

// Sequential reference with the same per-row accumulation order as the
// parallel kernel.
Matrix ReferenceSpmm(const SparseMatrix& a, const Matrix& x) {
  Matrix y(a.rows(), x.cols());
  for (int r = 0; r < a.rows(); ++r) {
    double* yrow = y.Row(r);
    for (int64_t i = a.row_ptr()[r]; i < a.row_ptr()[r + 1]; ++i) {
      const double v = a.values()[i];
      const double* xrow = x.Row(a.col_idx()[i]);
      for (int c = 0; c < x.cols(); ++c) yrow[c] += v * xrow[c];
    }
  }
  return y;
}

// The pre-refactor scatter form of A^T * X; the cached-transpose kernel
// must reproduce it bitwise (same per-output-row summation order).
Matrix ReferenceSpmmTransposed(const SparseMatrix& a, const Matrix& x) {
  Matrix y(a.cols(), x.cols());
  for (int r = 0; r < a.rows(); ++r) {
    const double* xrow = x.Row(r);
    for (int64_t i = a.row_ptr()[r]; i < a.row_ptr()[r + 1]; ++i) {
      const double v = a.values()[i];
      double* yrow = y.Row(a.col_idx()[i]);
      for (int c = 0; c < x.cols(); ++c) yrow[c] += v * xrow[c];
    }
  }
  return y;
}

// A CSR matrix exercising the partitioning edge cases: empty rows, one
// fully dense row, skewed row lengths, and many more rows than workers.
SparseMatrix PathologicalSparse(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  std::vector<CooEntry> entries;
  for (int c = 0; c < cols; ++c) entries.push_back({1, c, rng.Normal()});
  for (int i = 0; i < rows * 4; ++i) {
    int r = static_cast<int>(rng.UniformInt(rows));
    if (r % 5 == 0) continue;  // rows divisible by 5 stay empty
    entries.push_back({r, static_cast<int>(rng.UniformInt(cols)),
                       rng.Normal()});
  }
  return SparseMatrix::FromCoo(rows, cols, std::move(entries));
}

class ParallelKernelsTest : public ::testing::Test {
 protected:
  // Force the threaded path regardless of problem size.
  ScopedMinParallelWork min_work_{1};
};

TEST_F(ParallelKernelsTest, SpmmBitwiseAcrossThreadCounts) {
  // Rows >> threads (257 rows vs at most 7 workers).
  SparseMatrix a = PathologicalSparse(257, 133, 21);
  Rng rng(22);
  Matrix x = Matrix::Gaussian(133, 9, 1.0, &rng);
  const Matrix reference = ReferenceSpmm(a, x);
  for (int t : kThreadCounts) {
    ScopedNumThreads threads(t);
    ExpectBitwiseEqual(a.Spmm(x), reference);
  }
}

TEST_F(ParallelKernelsTest, SpmmTransposedBitwiseAcrossThreadCounts) {
  SparseMatrix a = PathologicalSparse(181, 97, 23);
  Rng rng(24);
  Matrix x = Matrix::Gaussian(181, 6, 1.0, &rng);
  const Matrix reference = ReferenceSpmmTransposed(a, x);
  for (int t : kThreadCounts) {
    ScopedNumThreads threads(t);
    ExpectBitwiseEqual(a.SpmmTransposed(x), reference);
  }
}

TEST_F(ParallelKernelsTest, SpmmEmptyAndDenseRows) {
  // 3 rows: empty, dense, single entry — fewer rows than workers.
  std::vector<CooEntry> entries;
  Rng rng(25);
  for (int c = 0; c < 40; ++c) entries.push_back({1, c, rng.Normal()});
  entries.push_back({2, 7, 3.5});
  SparseMatrix a = SparseMatrix::FromCoo(3, 40, std::move(entries));
  Matrix x = Matrix::Gaussian(40, 5, 1.0, &rng);
  const Matrix reference = ReferenceSpmm(a, x);
  for (int t : kThreadCounts) {
    ScopedNumThreads threads(t);
    Matrix y = a.Spmm(x);
    ExpectBitwiseEqual(y, reference);
    for (int c = 0; c < 5; ++c) EXPECT_EQ(y(0, c), 0.0);  // empty row
  }
}

TEST_F(ParallelKernelsTest, MatMulBitwiseAcrossThreadCounts) {
  Rng rng(26);
  Matrix a = Matrix::Gaussian(211, 33, 1.0, &rng);
  Matrix b = Matrix::Gaussian(33, 17, 1.0, &rng);
  // Reference computed at 1 thread; row ownership makes it the sequential
  // i-k-j result.
  Matrix reference;
  {
    ScopedNumThreads threads(1);
    reference = MatMul(a, b);
  }
  for (int t : kThreadCounts) {
    ScopedNumThreads threads(t);
    ExpectBitwiseEqual(MatMul(a, b), reference);
  }
}

TEST_F(ParallelKernelsTest, MatMulTransABitwiseAcrossThreadCounts) {
  // Reduction-dimension chunking must be a pure function of the shape, so
  // results match bitwise across thread counts even though the summation is
  // regrouped relative to a flat loop. Use > 2048 rows to span multiple
  // reduction chunks.
  Rng rng(27);
  Matrix a = Matrix::Gaussian(5000, 13, 1.0, &rng);
  Matrix b = Matrix::Gaussian(5000, 11, 1.0, &rng);
  Matrix reference;
  {
    ScopedNumThreads threads(1);
    reference = MatMulTransA(a, b);
  }
  EXPECT_TRUE(AllClose(reference, MatMul(Transpose(a), b), 1e-9));
  for (int t : kThreadCounts) {
    ScopedNumThreads threads(t);
    ExpectBitwiseEqual(MatMulTransA(a, b), reference);
  }
}

// Linear(Dropout(x)) as the fused DropoutLinear op or as the explicit
// Dropout -> MatMul [-> AddRowVector] / Dropout -> LinearRelu chain: the
// output, the grads of x, W and b, and the generator state (last, 1x4).
std::vector<Matrix> DropoutLinearRun(const Matrix& xv, const Matrix& wv,
                                     const Matrix& bv, bool relu, bool bias,
                                     bool fused) {
  Rng rng(41);
  Var x = MakeParam(xv);
  Var w = MakeParam(wv);
  Var b = bias ? MakeParam(bv) : Var();
  Var out;
  if (fused) {
    out = DropoutLinear(x, w, b, 0.5, relu, &rng);
  } else {
    Var dropped = Dropout(x, 0.5, /*training=*/true, &rng);
    out = relu ? LinearRelu(dropped, w, b) : MatMul(dropped, w);
    if (!relu && b) out = AddRowVector(out, b);
  }
  Rng upstream_rng(42);
  const Var upstream = MakeConstant(
      Matrix::Gaussian(out->rows(), out->cols(), 1.0, &upstream_rng));
  std::vector<Matrix> r = {out->value};
  Backward(SumAll(CWiseMul(out, upstream)));
  r.push_back(x->grad);
  r.push_back(w->grad);
  if (b) r.push_back(b->grad);
  Matrix state(1, 4);
  std::memcpy(state.data(), rng.ExportState().s, 4 * sizeof(uint64_t));
  r.push_back(state);
  return r;
}

// DropoutLinear at 1, 2 and 4 threads: the workers' row ranges split the
// masked row blocks, and each worker forms its own scratch block. On
// Gaussian features it matches the chain at 1 thread. On features holding
// NaN, +-inf and -0.0 it matches the chain at the same thread count: which
// of two NaNs an add returns depends on the row tiles a worker range forms
// (kernels/kernel_ops.h), so NaN payloads follow the thread count in the
// chain as well.
TEST_F(ParallelKernelsTest, DropoutLinearBitwiseAcrossThreadCounts) {
  struct Shape {
    int rows, cols;
  };
  for (const Shape shape : {Shape{7, 48}, Shape{2049, 48}, Shape{12000, 48},
                            Shape{2049, 1433}}) {
    for (const bool specials : {false, true}) {
      Rng rng(43 + shape.rows);
      Matrix xv = Matrix::Gaussian(shape.rows, shape.cols, 1.0, &rng);
      const double special[] = {std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                -0.0};
      for (int64_t i = 0; specials && i < xv.size(); i += 89) {
        xv.data()[i] = special[(i / 89) % 4];
      }
      const Matrix wv = Matrix::Gaussian(shape.cols, 8, 0.3, &rng);
      const Matrix bv = Matrix::Gaussian(1, 8, 1.0, &rng);
      for (const bool relu : {false, true}) {
        for (const bool bias : {false, true}) {
          std::vector<Matrix> one_thread;
          {
            ScopedNumThreads threads(1);
            one_thread = DropoutLinearRun(xv, wv, bv, relu, bias, false);
          }
          for (int t : {1, 2, 4}) {
            ScopedNumThreads threads(t);
            const std::vector<Matrix> reference =
                specials ? DropoutLinearRun(xv, wv, bv, relu, bias, false)
                         : one_thread;
            const std::vector<Matrix> fused =
                DropoutLinearRun(xv, wv, bv, relu, bias, true);
            ASSERT_EQ(fused.size(), reference.size());
            for (size_t i = 0; i < fused.size(); ++i) {
              SCOPED_TRACE(::testing::Message()
                           << shape.rows << "x" << shape.cols
                           << " specials=" << specials << " relu=" << relu
                           << " bias=" << bias << " threads=" << t
                           << " tensor " << i);
              ExpectBitwiseEqual(fused[i], reference[i]);
            }
          }
        }
      }
    }
  }
}

TEST_F(ParallelKernelsTest, MatMulTransBBitwiseAcrossThreadCounts) {
  Rng rng(28);
  Matrix a = Matrix::Gaussian(143, 21, 1.0, &rng);
  Matrix b = Matrix::Gaussian(37, 21, 1.0, &rng);
  Matrix reference;
  {
    ScopedNumThreads threads(1);
    reference = MatMulTransB(a, b);
  }
  for (int t : kThreadCounts) {
    ScopedNumThreads threads(t);
    ExpectBitwiseEqual(MatMulTransB(a, b), reference);
  }
}

TEST_F(ParallelKernelsTest, RowSoftmaxBitwiseAcrossThreadCounts) {
  Rng rng(29);
  Matrix a = Matrix::Gaussian(301, 12, 3.0, &rng);
  Matrix softmax_ref, log_softmax_ref;
  {
    ScopedNumThreads threads(1);
    softmax_ref = RowSoftmax(a);
    log_softmax_ref = RowLogSoftmax(a);
  }
  for (int t : kThreadCounts) {
    ScopedNumThreads threads(t);
    ExpectBitwiseEqual(RowSoftmax(a), softmax_ref);
    ExpectBitwiseEqual(RowLogSoftmax(a), log_softmax_ref);
  }
}

TEST_F(ParallelKernelsTest, TransposedCachedMatchesExplicitTranspose) {
  SparseMatrix a = PathologicalSparse(61, 44, 30);
  const SparseMatrix& cached = a.TransposedCached();
  EXPECT_TRUE(AllClose(cached.ToDense(), a.Transposed().ToDense(), 0.0));
  // Same object on repeated calls.
  EXPECT_EQ(&cached, &a.TransposedCached());
  // Mutating values invalidates the cache.
  (*a.mutable_values())[0] += 1.0;
  const SparseMatrix& rebuilt = a.TransposedCached();
  EXPECT_TRUE(AllClose(rebuilt.ToDense(), a.Transposed().ToDense(), 0.0));
}

TEST_F(ParallelKernelsTest, SpmmConcurrentCallersShareCachedTranspose) {
  // Many threads driving SpmmTransposed on the same matrix concurrently —
  // the lazy cache build must be race-free (also exercised under TSan in CI).
  SparseMatrix a = PathologicalSparse(97, 83, 31);
  Rng rng(32);
  Matrix x = Matrix::Gaussian(97, 4, 1.0, &rng);
  const Matrix reference = ReferenceSpmmTransposed(a, x);
  ParallelFor(8, 4, [&](int) {
    Matrix y = a.SpmmTransposed(x);
    ASSERT_EQ(std::memcmp(y.data(), reference.data(),
                          y.size() * sizeof(double)),
              0);
  });
}

}  // namespace
}  // namespace ahg
