// The per-tier kernel function table behind the runtime dispatch.
//
// Each tier (scalar / AVX2 / AVX-512) fills one TierOps with raw-pointer
// micro-kernels; the tensor layer (tensor/matrix.cc, tensor/sparse_matrix.cc,
// autodiff/ops.cc) resolves ActiveOps() once per operation — on the calling
// thread, before entering any parallel region — and drives its loops through
// the table.
//
// Exactness contract: every kernel accumulates each output element in
// exactly the order the scalar reference does (k ascending for GEMM, entry
// ascending for SpMM), uses separate multiply and add (no FMA contraction;
// the SIMD TUs are compiled with -ffp-contract=off), and reproduces the
// scalar tail element-for-element. Each tier holds a fixed number of output
// columns in registers (scalar 4, AVX2 16, AVX-512 32), which changes how
// many independent elements advance together, never the order any single
// element accumulates in — so all tiers and thread counts produce
// bitwise-identical results. (Max-reductions are order-independent for
// NaN-free input; a ±0.0 tie can differ in sign, which exp/log/div map to
// identical downstream values.)
#ifndef AUTOHENS_KERNELS_KERNEL_OPS_H_
#define AUTOHENS_KERNELS_KERNEL_OPS_H_

#include <cstdint>

#include "kernels/dispatch.h"

namespace ahg::kernels {

struct TierOps {
  Tier tier;

  // GEMM k-panel: crow[j] += sum_{k < kc, arow[k] != 0} arow[k]*b[k*ldb+j]
  // for j in [0, n), k ascending per element, zero a-entries skipped
  // (matches the scalar GEMM exactly, including its +/-0.0 behavior).
  void (*gemm_panel)(const double* arow, int kc, const double* b, int64_t ldb,
                     int n, double* crow);

  // One CSR row times a dense block: yrow[c] = sum_e values[e] *
  // x[cols[e]*ldx + c] for c in [0, n), entries ascending per element.
  void (*spmm_row)(const double* values, const int* cols, int64_t nnz,
                   const double* x, int64_t ldx, int n, double* yrow);

  // Four simultaneous dot products (A*B^T register block):
  // out[l] = sum_k arow[k] * b_l[k], k ascending within each lane.
  void (*dot4)(const double* arow, const double* b0, const double* b1,
               const double* b2, const double* b3, int n, double* out);

  // Max over x[0..n), n >= 1. Order-independent for NaN-free input.
  double (*row_max)(const double* x, int n);

  // x[i] /= denom (softmax normalization; lane-independent, exact).
  void (*div_inplace)(double* x, int n, double denom);

  // out[i] = x[i] - s (log-softmax shift).
  void (*sub_scalar)(const double* x, int n, double s, double* out);

  // x[i] = max(x[i] + bias[i], 0); bias may be null (plain ReLU). Matches
  // the scalar `v > 0 ? v : 0.0` bit-for-bit, including -0.0 and NaN
  // (both map to +0.0).
  void (*bias_relu_row)(double* x, const double* bias, int n);

  // x[i] += y[i].
  void (*add_inplace)(double* x, const double* y, int64_t n);

  // x[i] += alpha * y[i] (separate mul and add).
  void (*axpy_inplace)(double* x, double alpha, const double* y, int64_t n);

  // x[i] *= alpha.
  void (*scale_inplace)(double* x, double alpha, int64_t n);

  // out[i] = a[i] * b[i].
  void (*cwise_mul)(const double* a, const double* b, int64_t n, double* out);
};

// The scalar reference table (always available).
const TierOps& ScalarOps();

// Tier tables, or nullptr when the build lacks the instruction set (non-x86
// targets compile these TUs to empty stubs). CPU support is checked
// separately by TierSupported().
const TierOps* Avx2Ops();
const TierOps* Avx512Ops();

// Table for `tier`, falling back down to scalar when unsupported.
const TierOps& OpsFor(Tier tier);

// Table for ActiveTier().
const TierOps& ActiveOps();

}  // namespace ahg::kernels

#endif  // AUTOHENS_KERNELS_KERNEL_OPS_H_
