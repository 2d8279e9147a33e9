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

void GemmPanelScalar(const double* arow, int kc, const double* b, int64_t ldb,
                     int n, double* crow) {
  int j = 0;
  for (; j + kBlock <= n; j += kBlock) {
    double acc[kBlock];
    for (int v = 0; v < kBlock; ++v) acc[v] = crow[j + v];
    for (int k = 0; k < kc; ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = b + static_cast<int64_t>(k) * ldb + j;
      for (int v = 0; v < kBlock; ++v) acc[v] += aik * brow[v];
    }
    for (int v = 0; v < kBlock; ++v) crow[j + v] = acc[v];
  }
  // Unblocked remainder: k outer, j inner — the original MatMul inner loop.
  if (j < n) {
    for (int k = 0; k < kc; ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = b + static_cast<int64_t>(k) * ldb;
      for (int jj = j; jj < n; ++jj) crow[jj] += aik * brow[jj];
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

void Dot4Scalar(const double* arow, const double* b0, const double* b1,
                const double* b2, const double* b3, int n, double* out) {
  double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
  for (int k = 0; k < n; ++k) {
    const double av = arow[k];
    d0 += av * b0[k];
    d1 += av * b1[k];
    d2 += av * b2[k];
    d3 += av * b3[k];
  }
  out[0] = d0;
  out[1] = d1;
  out[2] = d2;
  out[3] = d3;
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

constexpr TierOps kScalarOps = {
    Tier::kScalar,
    GemmPanelScalar,
    SpmmRowScalar,
    Dot4Scalar,
    RowMaxScalar,
    DivInplaceScalar,
    SubScalarScalar,
    BiasReluRowScalar,
    AddInplaceScalar,
    AxpyInplaceScalar,
    ScaleInplaceScalar,
    CWiseMulScalar,
};

}  // namespace

const TierOps& ScalarOps() { return kScalarOps; }

}  // namespace ahg::kernels
