// Portable scalar reference tier. Every other tier must reproduce these
// kernels bit-for-bit; the 4-column blocks here only change how many
// output columns are held in register-resident accumulators, never the
// order any single element accumulates in.
#include <algorithm>
#include <cstdint>

#include "kernels/kernel_ops.h"

namespace ahg::kernels {
namespace {

// Output columns held in locals across a whole k panel / CSR row.
constexpr int kBlock = 4;

// One row of c over one k panel.
template <bool kSkipZeros>
void GemmRowScalar(const double* arow, int kc, const double* b, int64_t ldb,
                   int n, double* crow) {
  int j = 0;
  for (; j + kBlock <= n; j += kBlock) {
    double acc[kBlock];
    for (int v = 0; v < kBlock; ++v) acc[v] = crow[j + v];
    for (int k = 0; k < kc; ++k) {
      const double aik = arow[k];
      if (kSkipZeros && aik == 0.0) continue;
      const double* brow = b + static_cast<int64_t>(k) * ldb + j;
      for (int v = 0; v < kBlock; ++v) acc[v] += aik * brow[v];
    }
    for (int v = 0; v < kBlock; ++v) crow[j + v] = acc[v];
  }
  // Unblocked remainder: k outer, j inner — the original MatMul inner loop.
  if (j < n) {
    for (int k = 0; k < kc; ++k) {
      const double aik = arow[k];
      if (kSkipZeros && aik == 0.0) continue;
      const double* brow = b + static_cast<int64_t>(k) * ldb;
      for (int jj = j; jj < n; ++jj) crow[jj] += aik * brow[jj];
    }
  }
}

void GemmScalar(const double* a, int64_t lda, int m, int kc, const double* b,
                int64_t ldb, int n, double* c, int64_t ldc, bool skip_zeros) {
  for (int i = 0; i < m; ++i) {
    if (skip_zeros) {
      GemmRowScalar<true>(a + i * lda, kc, b, ldb, n, c + i * ldc);
    } else {
      GemmRowScalar<false>(a + i * lda, kc, b, ldb, n, c + i * ldc);
    }
  }
}

// One rank-1 update per nonzero a-entry, rows of a ascending.
void GemmTransAScalar(const double* a, int64_t lda, int kc, int m,
                      const double* b, int64_t ldb, int n, double* c,
                      int64_t ldc) {
  for (int k = 0; k < kc; ++k) {
    const double* arow = a + k * lda;
    const double* brow = b + k * ldb;
    for (int i = 0; i < m; ++i) {
      const double ai = arow[i];
      if (ai == 0.0) continue;
      double* crow = c + i * ldc;
      for (int j = 0; j < n; ++j) crow[j] += ai * brow[j];
    }
  }
}

void SpmmRowScalar(const double* values, const int* cols, int64_t nnz,
                   const double* x, int64_t ldx, int n, double* yrow) {
  int c = 0;
  for (; c + kBlock <= n; c += kBlock) {
    double acc[kBlock] = {0.0};
    for (int64_t e = 0; e < nnz; ++e) {
      const double v = values[e];
      const double* xrow = x + static_cast<int64_t>(cols[e]) * ldx + c;
      for (int l = 0; l < kBlock; ++l) acc[l] += v * xrow[l];
    }
    for (int l = 0; l < kBlock; ++l) yrow[c + l] = acc[l];
  }
  for (; c < n; ++c) {
    double acc = 0.0;
    for (int64_t e = 0; e < nnz; ++e) {
      acc += values[e] * x[static_cast<int64_t>(cols[e]) * ldx + c];
    }
    yrow[c] = acc;
  }
}

double RowMaxScalar(const double* x, int n) {
  double m = x[0];
  for (int c = 1; c < n; ++c) m = std::max(m, x[c]);
  return m;
}

void DivInplaceScalar(double* x, int n, double denom) {
  for (int c = 0; c < n; ++c) x[c] /= denom;
}

void SubScalarScalar(const double* x, int n, double s, double* out) {
  for (int c = 0; c < n; ++c) out[c] = x[c] - s;
}

void BiasReluRowScalar(double* x, const double* bias, int n) {
  if (bias != nullptr) {
    for (int c = 0; c < n; ++c) {
      const double v = x[c] + bias[c];
      x[c] = v > 0.0 ? v : 0.0;
    }
  } else {
    for (int c = 0; c < n; ++c) {
      const double v = x[c];
      x[c] = v > 0.0 ? v : 0.0;
    }
  }
}

void AddInplaceScalar(double* x, const double* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] += y[i];
}

void AxpyInplaceScalar(double* x, double alpha, const double* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] += alpha * y[i];
}

void ScaleInplaceScalar(double* x, double alpha, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] *= alpha;
}

void CWiseMulScalar(const double* a, const double* b, int64_t n, double* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

// One lane of xoshiro256** (Rng::Next) over every draw, in element order.
void KeepMaskScalar(uint64_t* s, uint64_t threshold, int64_t n,
                    uint64_t* bits) {
  uint64_t s0 = s[0], s1 = s[1], s2 = s[2], s3 = s[3];
  for (int64_t i = 0; i < n; i += 64) {
    const int len = static_cast<int>(std::min<int64_t>(64, n - i));
    uint64_t word = 0;
    for (int b = 0; b < len; ++b) {
      const uint64_t x = s1 * 5;
      const uint64_t r = ((x << 7) | (x >> 57)) * 9;
      const uint64_t t = s1 << 17;
      s2 ^= s0;
      s3 ^= s1;
      s1 ^= s2;
      s0 ^= s3;
      s2 ^= t;
      s3 = (s3 << 45) | (s3 >> 19);
      word |= static_cast<uint64_t>((r >> 11) >= threshold) << b;
    }
    bits[i / 64] = word;
  }
  s[0] = s0;
  s[1] = s1;
  s[2] = s2;
  s[3] = s3;
}

void MaskedScaleScalar(const double* in, const uint64_t* keep, int64_t first,
                       int64_t n, double scale, double* out) {
  // Indexed, not branched: the bits are random.
  const double factor[2] = {0.0, scale};
  for (int64_t i = 0; i < n; ++i) {
    const int64_t bit = first + i;
    out[i] = in[i] * factor[(keep[bit >> 6] >> (bit & 63)) & 1];
  }
}

constexpr TierOps kScalarOps = {
    Tier::kScalar,
    GemmScalar,
    GemmTransAScalar,
    SpmmRowScalar,
    RowMaxScalar,
    DivInplaceScalar,
    SubScalarScalar,
    BiasReluRowScalar,
    AddInplaceScalar,
    AxpyInplaceScalar,
    ScaleInplaceScalar,
    CWiseMulScalar,
    KeepMaskScalar,
    MaskedScaleScalar,
};

}  // namespace

const TierOps& ScalarOps() { return kScalarOps; }

}  // namespace ahg::kernels
