// Kernel backend tests: 64-byte allocation alignment on every Matrix path,
// the bitwise-identity matrix across dispatch tiers x odd shapes x thread
// counts, and odd-shape edge cases.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "autodiff/ops.h"
#include "autodiff/variable.h"
#include "gtest/gtest.h"
#include "kernels/dispatch.h"
#include "kernels/kernel_ops.h"
#include "tensor/aligned.h"
#include "tensor/matrix.h"
#include "tensor/sparse_matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ahg {
namespace {

using kernels::ScopedTier;
using kernels::Tier;
using kernels::TierOps;
using kernels::TierSupported;

// A `zero_frac` share of exact zeros (default ~10%) so the GEMM zero-skip
// is exercised; half of them are -0.0.
Matrix RandomMatrix(int rows, int cols, uint64_t seed,
                    double zero_frac = 0.1) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng.Bernoulli(zero_frac) ? (i % 2 == 0 ? 0.0 : -0.0)
                                           : rng.Normal(0.0, 1.0);
  }
  return m;
}

// ~20% of rows have no entries (zero-nnz edge) and degrees vary, so the
// row-parallel chunks carry uneven work.
SparseMatrix RandomSparse(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  std::vector<CooEntry> entries;
  for (int r = 0; r < rows; ++r) {
    if (rng.Bernoulli(0.2)) continue;
    const int degree = 1 + static_cast<int>(rng.UniformInt(8));
    for (int d = 0; d < degree; ++d) {
      entries.push_back({r, static_cast<int>(rng.UniformInt(cols)),
                         rng.Normal(0.0, 1.0)});
    }
  }
  return SparseMatrix::FromCoo(rows, cols, std::move(entries));
}

::testing::AssertionResult BitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << a.rows() << "x" << a.cols() << " vs " << b.rows()
           << "x" << b.cols();
  }
  if (a.size() > 0 &&
      std::memcmp(a.data(), b.data(),
                  static_cast<size_t>(a.size()) * sizeof(double)) != 0) {
    for (int64_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << "first difference at flat index " << i << ": "
               << a.data()[i] << " vs " << b.data()[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<Tier> SupportedSimdTiers() {
  std::vector<Tier> tiers;
  if (TierSupported(Tier::kAvx2)) tiers.push_back(Tier::kAvx2);
  if (TierSupported(Tier::kAvx512)) tiers.push_back(Tier::kAvx512);
  return tiers;
}

TEST(AlignmentTest, EveryAllocationPathIs64ByteAligned) {
  // Fresh allocation.
  Matrix fresh(5, 7);
  EXPECT_TRUE(IsTensorAligned(fresh.data()));

  // FromRows and copy construction.
  Matrix from_rows = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_TRUE(IsTensorAligned(from_rows.data()));
  Matrix copy = from_rows;
  EXPECT_TRUE(IsTensorAligned(copy.data()));

  // GrowRows allocates the destination through the normal path.
  Matrix grown = GrowRows(from_rows, 9);
  EXPECT_TRUE(IsTensorAligned(grown.data()));

  // Move transfers the (aligned) buffer.
  Matrix moved = std::move(fresh);
  EXPECT_TRUE(IsTensorAligned(moved.data()));
}

TEST(DispatchTest, ScopedTierForcesAndRestores) {
  const Tier before = kernels::ActiveTier();
  {
    ScopedTier forced(Tier::kScalar);
    EXPECT_EQ(kernels::ActiveTier(), Tier::kScalar);
    EXPECT_EQ(kernels::ActiveOps().tier, Tier::kScalar);
  }
  EXPECT_EQ(kernels::ActiveTier(), before);
}

TEST(DispatchTest, OpsForFallsBackToSupportedTier) {
  // Whatever is requested, the returned table must be for a supported tier.
  for (Tier t : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512}) {
    const TierOps& ops = kernels::OpsFor(t);
    EXPECT_TRUE(TierSupported(ops.tier));
    EXPECT_LE(static_cast<int>(ops.tier), static_cast<int>(t));
  }
}

TEST(BitwiseTest, DenseOpsMatchScalarAcrossTiersShapesThreads) {
  const std::vector<Tier> tiers = SupportedSimdTiers();
  ScopedMinParallelWork grain(1);  // force the threaded path on tiny inputs
  uint64_t seed = 1;
  for (const int m : {1, 5, 17, 33}) {
    // k = 130 spans two GEMM k-panels (128 rows each).
    for (const int k : {1, 8, 31, 130}) {
      for (const int n : {1, 4, 9, 33}) {
        const Matrix a = RandomMatrix(m, k, seed++);
        const Matrix b = RandomMatrix(k, n, seed++);
        const Matrix bt = RandomMatrix(n, k, seed++);
        Matrix base_mm, base_ta, base_tb, base_sm, base_lsm;
        {
          ScopedTier scalar(Tier::kScalar);
          base_mm = MatMul(a, b);
          base_ta = MatMulTransA(a, RandomMatrix(m, n, seed));
          base_tb = MatMulTransB(a, bt);
          base_sm = RowSoftmax(a);
          base_lsm = RowLogSoftmax(a);
        }
        for (const Tier tier : tiers) {
          for (const int threads : {1, 4}) {
            ScopedTier t(tier);
            ScopedNumThreads nt(threads);
            EXPECT_TRUE(BitwiseEqual(MatMul(a, b), base_mm))
                << "matmul " << m << "x" << k << "x" << n << " tier "
                << kernels::TierName(tier) << " threads " << threads;
            EXPECT_TRUE(BitwiseEqual(MatMulTransA(a, RandomMatrix(m, n, seed)),
                                     base_ta))
                << "matmul_ta " << m << "x" << k << "x" << n;
            EXPECT_TRUE(BitwiseEqual(MatMulTransB(a, bt), base_tb))
                << "matmul_tb " << m << "x" << k << "x" << n;
            EXPECT_TRUE(BitwiseEqual(RowSoftmax(a), base_sm))
                << "softmax " << m << "x" << k;
            EXPECT_TRUE(BitwiseEqual(RowLogSoftmax(a), base_lsm))
                << "log_softmax " << m << "x" << k;
          }
        }
      }
    }
  }
}

// The SIMD GEMM and rank-1 kernels walk each a-panel either densely (add
// masked off at zero entries) or over its compacted nonzero indices, chosen
// at 1/4 density. Sweep the zero share through both walks and the switch,
// with reduction lengths below one vector, across the 128-entry panel and
// with every column remainder.
TEST(BitwiseTest, GemmZeroDensitySweepMatchesScalar) {
  const std::vector<Tier> tiers = SupportedSimdTiers();
  ScopedMinParallelWork grain(1);
  uint64_t seed = 900;
  for (const double zero_frac : {0.0, 0.1, 0.5, 0.7, 0.8, 0.95, 1.0}) {
    for (const int k : {3, 7, 12, 130, 257}) {
      for (const int m : {1, 9, 40}) {
        for (const int n : {1, 3, 8, 13, 37}) {
          const Matrix a = RandomMatrix(m, k, seed++, zero_frac);
          const Matrix b = RandomMatrix(k, n, seed++);
          // A^T * B reduces over m rows; each row of a is one rank-1
          // update across k rows of the result.
          const Matrix bt = RandomMatrix(m, n, seed++);
          Matrix base_mm, base_ta;
          {
            ScopedTier scalar(Tier::kScalar);
            base_mm = MatMul(a, b);
            base_ta = MatMulTransA(a, bt);
          }
          for (const Tier tier : tiers) {
            for (const int threads : {1, 4}) {
              ScopedTier t(tier);
              ScopedNumThreads nt(threads);
              EXPECT_TRUE(BitwiseEqual(MatMul(a, b), base_mm))
                  << "matmul " << m << "x" << k << "x" << n << " zeros "
                  << zero_frac << " tier " << kernels::TierName(tier)
                  << " threads " << threads;
              EXPECT_TRUE(BitwiseEqual(MatMulTransA(a, bt), base_ta))
                  << "matmul_ta " << m << "x" << k << "x" << n << " zeros "
                  << zero_frac << " tier " << kernels::TierName(tier)
                  << " threads " << threads;
            }
          }
        }
      }
    }
  }
}

// Every row with exactly z nonzeros for z around len/4, so both walks run
// at the switch itself, in one panel and straddling two.
TEST(BitwiseTest, GemmWalkSwitchAtQuarterDensityMatchesScalar) {
  for (const int k : {4, 8, 12, 64, 130}) {
    const int quarter = (k + 3) / 4;
    for (int z = std::max(0, quarter - 2); z <= std::min(k, quarter + 2);
         ++z) {
      Rng rng(static_cast<uint64_t>(k * 100 + z));
      Matrix a(6, k);
      for (int r = 0; r < a.rows(); ++r) {
        std::vector<int> nonzero = rng.SampleWithoutReplacement(k, z);
        for (const int c : nonzero) a(r, c) = rng.Normal(0.0, 1.0);
      }
      const Matrix b = RandomMatrix(k, 11, 1000 + k);
      const Matrix bt = RandomMatrix(6, 11, 2000 + k);
      Matrix base_mm, base_ta;
      {
        ScopedTier scalar(Tier::kScalar);
        base_mm = MatMul(a, b);
        base_ta = MatMulTransA(a, bt);
      }
      for (const Tier tier : SupportedSimdTiers()) {
        ScopedTier t(tier);
        EXPECT_TRUE(BitwiseEqual(MatMul(a, b), base_mm))
            << "k " << k << " nonzeros " << z << " "
            << kernels::TierName(tier);
        EXPECT_TRUE(BitwiseEqual(MatMulTransA(a, bt), base_ta))
            << "k " << k << " nonzeros " << z << " "
            << kernels::TierName(tier);
      }
    }
  }
}

// A +-0.0 a-entry adds no term, even opposite an inf or NaN: the masked
// walk must mask the add (0 * inf = NaN), not just the branch. Every tier
// must equal the scalar result, which stays finite. The widths cover one
// lane, one full vector, a partial second vector and each GEMM tile shape.
TEST(BitwiseTest, GemmZeroOppositeInfNanStaysFinite) {
  const double poison[4] = {std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN(), 1e308};
  std::vector<Tier> tiers = SupportedSimdTiers();
  tiers.push_back(Tier::kScalar);
  for (const double zero_frac : {0.3, 0.95}) {
    for (const int k : {5, 40, 130}) {
      for (const int n : {1, 8, 9, 13, 16, 17}) {
        const int m = 23;
        // MatMul: columns 1, 4, 7... of a are all +-0.0 and the matching
        // rows of b hold inf/NaN.
        Matrix a = RandomMatrix(m, k, 3000 + k, zero_frac);
        Matrix b = RandomMatrix(k, n, 4000 + k);
        for (int kk = 1; kk < k; kk += 3) {
          for (int i = 0; i < m; ++i) a(i, kk) = (i % 2 == 0) ? 0.0 : -0.0;
          for (int j = 0; j < n; ++j) b(kk, j) = poison[(kk + j) % 4];
        }
        // MatMulTransA: rows 2, 5, 8... of the left operand are all +-0.0
        // and the matching rows of the right one hold inf/NaN.
        Matrix ta = RandomMatrix(k, m, 5000 + k, zero_frac);
        Matrix tb = RandomMatrix(k, n, 6000 + k);
        for (int r = 2; r < k; r += 3) {
          for (int i = 0; i < m; ++i) ta(r, i) = (i % 2 == 0) ? -0.0 : 0.0;
          for (int j = 0; j < n; ++j) tb(r, j) = poison[(r + j) % 4];
        }
        Matrix base_mm, base_ta;
        {
          ScopedTier scalar(Tier::kScalar);
          base_mm = MatMul(a, b);
          base_ta = MatMulTransA(ta, tb);
        }
        for (int64_t i = 0; i < base_mm.size(); ++i) {
          ASSERT_TRUE(std::isfinite(base_mm.data()[i])) << "matmul " << i;
        }
        for (int64_t i = 0; i < base_ta.size(); ++i) {
          ASSERT_TRUE(std::isfinite(base_ta.data()[i])) << "matmul_ta " << i;
        }
        for (const Tier tier : tiers) {
          ScopedTier t(tier);
          EXPECT_TRUE(BitwiseEqual(MatMul(a, b), base_mm))
              << "matmul k " << k << " n " << n << " "
              << kernels::TierName(tier);
          EXPECT_TRUE(BitwiseEqual(MatMulTransA(ta, tb), base_ta))
              << "matmul_ta k " << k << " n " << n << " "
              << kernels::TierName(tier);
        }
      }
    }
  }
}

// MatMulTransB is a dot product per element and skips nothing: a +-0.0
// opposite an inf adds 0 * inf = NaN, at every tier, bit for bit.
TEST(BitwiseTest, MatMulTransBAddsEveryTerm) {
  std::vector<Tier> tiers = SupportedSimdTiers();
  tiers.push_back(Tier::kScalar);
  for (const int k : {5, 130}) {
    for (const int n : {1, 3, 4, 8, 9, 16, 17, 33}) {
      for (const int m : {1, 7, 13}) {
        // Column 3 of a is +-0.0 and column 3 of b (row 3 of B^T) is inf.
        Matrix a = RandomMatrix(m, k, 7000 + k * 10 + n, /*zero_frac=*/0.0);
        Matrix b = RandomMatrix(n, k, 8000 + k * 10 + n, /*zero_frac=*/0.0);
        for (int i = 0; i < m; ++i) a(i, 3) = (i % 2 == 0) ? 0.0 : -0.0;
        for (int j = 0; j < n; ++j) {
          b(j, 3) = (j % 2 == 0) ? std::numeric_limits<double>::infinity()
                                 : -std::numeric_limits<double>::infinity();
        }
        Matrix base;
        {
          ScopedTier scalar(Tier::kScalar);
          base = MatMulTransB(a, b);
        }
        for (int64_t i = 0; i < base.size(); ++i) {
          ASSERT_TRUE(std::isnan(base.data()[i])) << "scalar " << i;
        }
        for (const Tier tier : tiers) {
          ScopedTier t(tier);
          const Matrix c = MatMulTransB(a, b);
          for (int64_t i = 0; i < c.size(); ++i) {
            ASSERT_TRUE(std::isnan(c.data()[i]))
                << kernels::TierName(tier) << " m " << m << " k " << k
                << " n " << n << " index " << i;
          }
          EXPECT_TRUE(BitwiseEqual(c, base))
              << kernels::TierName(tier) << " m " << m << " k " << k
              << " n " << n;
        }
      }
    }
  }
}

// Row counts that are not a multiple of any tile height, at every tile
// width, for all three products.
TEST(BitwiseTest, GemmTileEdgesMatchScalar) {
  const std::vector<Tier> tiers = SupportedSimdTiers();
  uint64_t seed = 9100;
  for (const int m : {1, 2, 3, 5, 6, 7, 9, 11, 12, 13, 15, 17, 31, 33}) {
    for (const int k : {5, 48}) {
      for (const int n : {1, 2, 5, 8, 9, 16, 17, 24, 33, 65}) {
        const Matrix a = RandomMatrix(m, k, seed++, 0.3);
        const Matrix b = RandomMatrix(k, n, seed++);
        const Matrix bt = RandomMatrix(n, k, seed++);
        // A^T * B with a.cols() = m rows of c: every row-vector remainder.
        const Matrix ta = RandomMatrix(k, m, seed++, 0.3);
        const Matrix tb = RandomMatrix(k, n, seed++);
        Matrix base_mm, base_ta, base_tb;
        {
          ScopedTier scalar(Tier::kScalar);
          base_mm = MatMul(a, b);
          base_ta = MatMulTransA(ta, tb);
          base_tb = MatMulTransB(a, bt);
        }
        for (const Tier tier : tiers) {
          ScopedTier t(tier);
          EXPECT_TRUE(BitwiseEqual(MatMul(a, b), base_mm))
              << "matmul " << m << "x" << k << "x" << n << " "
              << kernels::TierName(tier);
          EXPECT_TRUE(BitwiseEqual(MatMulTransA(ta, tb), base_ta))
              << "matmul_ta " << m << "x" << k << "x" << n << " "
              << kernels::TierName(tier);
          EXPECT_TRUE(BitwiseEqual(MatMulTransB(a, bt), base_tb))
              << "matmul_tb " << m << "x" << k << "x" << n << " "
              << kernels::TierName(tier);
        }
      }
    }
  }
}

// One dense row among near-empty ones: the tile (or MatMulTransA block)
// counts under 1/4 nonzero, so the dense row takes the compacted walk;
// with two or three dense rows the same tile takes the masked walk.
TEST(BitwiseTest, GemmDenseRowAmongSparseRowsMatchesScalar) {
  const std::vector<Tier> tiers = SupportedSimdTiers();
  for (const int dense_rows : {1, 2, 3}) {
    for (const int k : {12, 48, 130}) {
      for (const int n : {1, 8, 13, 40}) {
        Rng rng(static_cast<uint64_t>(dense_rows * 1000 + k * 10 + n));
        // MatMul: rows 0..dense_rows-1 of each 8-row group are dense, the
        // rest hold one nonzero each.
        Matrix a(19, k);
        for (int r = 0; r < a.rows(); ++r) {
          if (r % 8 < dense_rows) {
            for (int c = 0; c < k; ++c) a(r, c) = rng.Normal(0.0, 1.0);
          } else {
            a(r, static_cast<int>(rng.UniformInt(k))) = rng.Normal(0.0, 1.0);
          }
        }
        // MatMulTransA: the same pattern over the rows of a that form one
        // reduction block.
        Matrix ta(8 * k, 21);
        for (int r = 0; r < ta.rows(); ++r) {
          if (r % 8 < dense_rows) {
            for (int c = 0; c < ta.cols(); ++c) ta(r, c) = rng.Normal(0.0, 1.0);
          } else {
            ta(r, static_cast<int>(rng.UniformInt(ta.cols()))) =
                rng.Normal(0.0, 1.0);
          }
        }
        const Matrix b = RandomMatrix(k, n, 9300 + k);
        const Matrix tb = RandomMatrix(ta.rows(), n, 9400 + k);
        Matrix base_mm, base_ta;
        {
          ScopedTier scalar(Tier::kScalar);
          base_mm = MatMul(a, b);
          base_ta = MatMulTransA(ta, tb);
        }
        for (const Tier tier : tiers) {
          ScopedTier t(tier);
          EXPECT_TRUE(BitwiseEqual(MatMul(a, b), base_mm))
              << "matmul dense rows " << dense_rows << " k " << k << " n "
              << n << " " << kernels::TierName(tier);
          EXPECT_TRUE(BitwiseEqual(MatMulTransA(ta, tb), base_ta))
              << "matmul_ta dense rows " << dense_rows << " k " << k
              << " n " << n << " " << kernels::TierName(tier);
        }
      }
    }
  }
}

// MatMulTransA sums fixed 2048-row chunks into partials and adds them in
// chunk order. Reductions just under, at and past one chunk and past two,
// with each zero share taking a different walk (no zeros, masked, sparse).
TEST(BitwiseTest, MatMulTransAAcrossReductionChunksMatchesScalar) {
  const std::vector<Tier> tiers = SupportedSimdTiers();
  ScopedMinParallelWork grain(1);
  uint64_t seed = 9500;
  for (const int m : {2047, 2048, 2049, 4100}) {
    for (const int n : {1, 4, 8, 9, 16, 17, 33}) {
      for (const double zero_frac : {0.0, 0.5, 0.9}) {
        const Matrix a = RandomMatrix(m, 13, seed++, zero_frac);
        const Matrix b = RandomMatrix(m, n, seed++);
        Matrix base;
        {
          ScopedTier scalar(Tier::kScalar);
          base = MatMulTransA(a, b);
        }
        for (const Tier tier : tiers) {
          for (const int threads : {1, 4}) {
            ScopedTier t(tier);
            ScopedNumThreads nt(threads);
            EXPECT_TRUE(BitwiseEqual(MatMulTransA(a, b), base))
                << "m " << m << " n " << n << " zeros " << zero_frac << " "
                << kernels::TierName(tier) << " threads " << threads;
          }
        }
      }
    }
  }
}

TEST(BitwiseTest, SpmmMatchesScalarAcrossTiersThreads) {
  const SparseMatrix adj = RandomSparse(200, 150, 7);
  ScopedMinParallelWork grain(1);
  // A subset mixing zero-nnz rows, boundaries, and repeats.
  const std::vector<int> subset = {0, 3, 7, 7, 42, 150, 199};
  // Widths below, at and past every tier's column block (4, 16, 32).
  for (const int n : {1, 5, 16, 33, 47}) {
    const Matrix x = RandomMatrix(150, n, 500 + n);
    Matrix base, base_rows;
    {
      ScopedTier scalar(Tier::kScalar);
      base = adj.Spmm(x);
      base_rows = adj.SpmmRows(subset, x);
    }
    for (const Tier tier : SupportedSimdTiers()) {
      for (const int threads : {1, 4}) {
        ScopedTier t(tier);
        ScopedNumThreads nt(threads);
        EXPECT_TRUE(BitwiseEqual(adj.Spmm(x), base))
            << kernels::TierName(tier) << " threads " << threads << " n "
            << n;
        EXPECT_TRUE(BitwiseEqual(adj.SpmmRows(subset, x), base_rows))
            << "rows subset, tier " << kernels::TierName(tier);
      }
    }
    // Subset rows must equal the corresponding rows of the full product.
    for (size_t i = 0; i < subset.size(); ++i) {
      for (int c = 0; c < n; ++c) {
        EXPECT_EQ(base_rows(static_cast<int>(i), c), base(subset[i], c));
      }
    }
  }
}

TEST(BitwiseTest, LinearReluForwardBackwardMatchesScalar) {
  const Matrix xm = RandomMatrix(19, 13, 301);
  const Matrix wm = RandomMatrix(13, 7, 302);
  const Matrix bm = RandomMatrix(1, 7, 303);
  auto run = [&](Matrix* y, Matrix* gx, Matrix* gw, Matrix* gb) {
    Var x = MakeParam(xm);
    Var w = MakeParam(wm);
    Var b = MakeParam(bm);
    Var out = LinearRelu(x, w, b);
    Backward(SumAll(out));
    *y = out->value;
    *gx = x->grad;
    *gw = w->grad;
    *gb = b->grad;
  };
  Matrix y0, gx0, gw0, gb0;
  {
    ScopedTier scalar(Tier::kScalar);
    run(&y0, &gx0, &gw0, &gb0);
  }
  for (const Tier tier : SupportedSimdTiers()) {
    ScopedTier t(tier);
    Matrix y, gx, gw, gb;
    run(&y, &gx, &gw, &gb);
    EXPECT_TRUE(BitwiseEqual(y, y0)) << kernels::TierName(tier);
    EXPECT_TRUE(BitwiseEqual(gx, gx0)) << kernels::TierName(tier);
    EXPECT_TRUE(BitwiseEqual(gw, gw0)) << kernels::TierName(tier);
    EXPECT_TRUE(BitwiseEqual(gb, gb0)) << kernels::TierName(tier);
  }
}

TEST(BitwiseTest, BiasReluRowHandlesNegativeZeroLikeScalar) {
  // -0.0 and true negatives must both map to +0.0 in every tier.
  const double in[7] = {-0.0, 0.0, -1.5, 2.5, -1e-300, 1e-300, -3.0};
  std::vector<Tier> tiers = SupportedSimdTiers();
  tiers.push_back(Tier::kScalar);
  for (const Tier tier : tiers) {
    const TierOps& ops = kernels::OpsFor(tier);
    double x[7];
    std::memcpy(x, in, sizeof(in));
    ops.bias_relu_row(x, nullptr, 7);
    for (int i = 0; i < 7; ++i) {
      const double expected = in[i] > 0.0 ? in[i] : 0.0;
      EXPECT_EQ(std::memcmp(&x[i], &expected, sizeof(double)), 0)
          << kernels::TierName(tier) << " index " << i;
      if (in[i] <= 0.0) {
        EXPECT_FALSE(std::signbit(x[i]))
            << kernels::TierName(tier) << " produced -0.0 at " << i;
      }
    }
  }
}

// A skipped zero a-entry must leave its outputs' bits alone, even an output
// that holds -0.0 (adding +0.0 there would give +0.0). The operands are
// half zeros, so the SIMD tiers take their full walks with the add masked,
// and b is all -0.0, so every term added keeps c at -0.0 exactly.
TEST(BitwiseTest, GemmSkippedZerosKeepNegativeZeroOutputs) {
  std::vector<Tier> tiers = SupportedSimdTiers();
  tiers.push_back(Tier::kScalar);
  const int m = 13, kc = 20;
  for (const Tier tier : tiers) {
    const TierOps& ops = kernels::OpsFor(tier);
    for (const int n : {1, 4, 8, 9, 17}) {
      std::vector<double> a(m * kc), b(kc * n, -0.0), c(m * n, -0.0);
      for (int i = 0; i < m * kc; ++i) a[i] = (i % 2 == 0) ? 0.0 : 1.5;
      ops.gemm(a.data(), kc, m, kc, b.data(), n, n, c.data(), n,
               /*skip_zeros=*/true);
      for (int i = 0; i < m * n; ++i) {
        EXPECT_TRUE(c[i] == 0.0 && std::signbit(c[i]))
            << kernels::TierName(tier) << " gemm n " << n << " index " << i;
      }
      // gemm_ta reads a as kc x m.
      std::vector<double> cta(m * n, -0.0);
      ops.gemm_ta(a.data(), m, kc, m, b.data(), n, n, cta.data(), n);
      for (int i = 0; i < m * n; ++i) {
        EXPECT_TRUE(cta[i] == 0.0 && std::signbit(cta[i]))
            << kernels::TierName(tier) << " gemm_ta n " << n << " index "
            << i;
      }
    }
  }
}

TEST(EdgeTest, SoftmaxOneColumnIsExactlyOne) {
  std::vector<Tier> tiers = SupportedSimdTiers();
  tiers.push_back(Tier::kScalar);
  const Matrix a = RandomMatrix(9, 1, 401);
  for (const Tier tier : tiers) {
    ScopedTier t(tier);
    const Matrix sm = RowSoftmax(a);
    const Matrix lsm = RowLogSoftmax(a);
    for (int r = 0; r < a.rows(); ++r) {
      EXPECT_EQ(sm(r, 0), 1.0) << kernels::TierName(tier);
      EXPECT_EQ(lsm(r, 0), 0.0) << kernels::TierName(tier);
    }
  }
}

TEST(EdgeTest, SoftmaxZeroColumnsDoesNotCrash) {
  const Matrix a(4, 0);
  const Matrix sm = RowSoftmax(a);
  EXPECT_EQ(sm.rows(), 4);
  EXPECT_EQ(sm.cols(), 0);
  const Matrix lsm = RowLogSoftmax(a);
  EXPECT_EQ(lsm.rows(), 4);
  EXPECT_EQ(lsm.cols(), 0);
}

TEST(EdgeTest, SpmmEmptySubsetAndZeroNnzRows) {
  // A matrix whose rows are all empty: the product is exactly zero.
  const SparseMatrix empty = SparseMatrix::FromCoo(6, 5, {});
  const Matrix x = RandomMatrix(5, 9, 402);
  std::vector<Tier> tiers = SupportedSimdTiers();
  tiers.push_back(Tier::kScalar);
  for (const Tier tier : tiers) {
    ScopedTier t(tier);
    const Matrix y = empty.Spmm(x);
    EXPECT_EQ(y.rows(), 6);
    for (int64_t i = 0; i < y.size(); ++i) EXPECT_EQ(y.data()[i], 0.0);
    // Empty row subset: zero-row result, no work, no crash.
    const Matrix yr = empty.SpmmRows({}, x);
    EXPECT_EQ(yr.rows(), 0);
    EXPECT_EQ(yr.cols(), 9);
  }
}

TEST(EdgeTest, GemmNarrowerThanRegisterBlock) {
  // Output width below every SIMD block width: only tail paths run.
  for (const int n : {1, 2, 3}) {
    const Matrix a = RandomMatrix(11, 10, 500 + n);
    const Matrix b = RandomMatrix(10, n, 600 + n);
    Matrix base;
    {
      ScopedTier scalar(Tier::kScalar);
      base = MatMul(a, b);
    }
    std::vector<Tier> tiers = SupportedSimdTiers();
    tiers.push_back(Tier::kScalar);
    for (const Tier tier : tiers) {
      ScopedTier t(tier);
      EXPECT_TRUE(BitwiseEqual(MatMul(a, b), base))
          << kernels::TierName(tier) << " n " << n;
    }
  }
}

// The keep-mask kernel on every tier against a plain !rng.Bernoulli(p)
// loop: the same bits (zero past n) and the same final generator state,
// below, at and past the laned sizes and at odd tails.
TEST(KeepMaskTest, MatchesBernoulliLoopOnEveryTier) {
  std::vector<Tier> tiers = SupportedSimdTiers();
  tiers.push_back(Tier::kScalar);
  for (const int64_t n : {int64_t{0}, int64_t{1}, int64_t{63}, int64_t{64},
                          int64_t{65}, int64_t{511}, int64_t{513},
                          int64_t{4095}, int64_t{57600}, int64_t{576000},
                          int64_t{576013}}) {
    for (const double p : {0.1, 0.25, 0.5, 0.9, std::nextafter(1.0, 0.0)}) {
      Rng reference(1000 + n);
      const RngState start = reference.ExportState();
      std::vector<uint64_t> want((n + 63) / 64, 0);
      for (int64_t i = 0; i < n; ++i) {
        if (!reference.Bernoulli(p)) want[i / 64] |= uint64_t{1} << (i % 64);
      }
      const RngState end = reference.ExportState();
      for (const Tier tier : tiers) {
        const TierOps& ops = kernels::OpsFor(tier);
        RngState state = start;
        std::vector<uint64_t> got(want.size(), ~uint64_t{0});
        ops.keep_mask(state.s, Rng::BernoulliThreshold(p), n, got.data());
        EXPECT_EQ(got, want) << kernels::TierName(tier) << " n=" << n
                             << " p=" << p;
        EXPECT_TRUE(std::equal(state.s, state.s + 4, end.s))
            << kernels::TierName(tier) << " n=" << n << " p=" << p;
      }
    }
  }
}

// The masked scale on every tier against in[i] * (kept ? scale : 0.0), at
// every bit offset within a word and across word boundaries, on inputs
// holding NaN, +-inf and -0.0.
TEST(KeepMaskTest, MaskedScaleMatchesProductAtEveryOffset) {
  constexpr int kBits = 320;
  Rng rng(77);
  std::vector<uint64_t> keep(kBits / 64);
  for (uint64_t& w : keep) w = rng.Next();
  std::vector<double> in(kBits);
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(), -0.0,
                             0.0};
  for (int i = 0; i < kBits; ++i) {
    in[i] = i % 7 == 0 ? specials[(i / 7) % 5] : rng.Normal(0.0, 1.0);
  }
  const double scale = 1.0 / (1.0 - 0.3);
  std::vector<Tier> tiers = SupportedSimdTiers();
  tiers.push_back(Tier::kScalar);
  for (const Tier tier : tiers) {
    const TierOps& ops = kernels::OpsFor(tier);
    for (int first = 0; first < 130; ++first) {
      for (const int n : {0, 1, 7, 8, 9, 63, 64, 65, 150}) {
        std::vector<double> got(n, 42.0), want(n);
        for (int i = 0; i < n; ++i) {
          const int64_t bit = first + i;
          const bool kept = (keep[bit / 64] >> (bit % 64)) & 1;
          want[i] = in[bit] * (kept ? scale : 0.0);
        }
        ops.masked_scale(in.data() + first, keep.data(), first, n, scale,
                         got.data());
        EXPECT_TRUE(n == 0 || std::memcmp(got.data(), want.data(),
                                          n * sizeof(double)) == 0)
            << kernels::TierName(tier) << " first=" << first << " n=" << n;
      }
    }
  }
}

}  // namespace
}  // namespace ahg
