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
// scalar tail element-for-element. The SIMD GEMMs keep an R x NV register
// tile of outputs (R rows of c by NV vectors of columns; for
// MatMulTransA, vectors of rows by a few columns) across a whole reduction,
// and SpMM holds a block of output columns across a CSR row. A tile's shape
// changes how many independent elements advance together, never the order
// any single element accumulates in, so all tiers and thread counts produce
// bitwise-identical results. (Max-reductions are order-independent for
// NaN-free input; a +-0.0 tie can differ in sign, which exp/log/div map to
// identical downstream values.)
#ifndef AUTOHENS_KERNELS_KERNEL_OPS_H_
#define AUTOHENS_KERNELS_KERNEL_OPS_H_

#include <cstdint>

#include "kernels/dispatch.h"

namespace ahg::kernels {

// Longest k-panel one gemm call takes; MatMul walks B in panels this long
// so a kGemmPanel x n slab of B stays in cache while rows stream through.
constexpr int kGemmPanel = 128;

struct TierOps {
  Tier tier;

  // GEMM over one k-panel (kc <= kGemmPanel): for i in [0, m), j in
  // [0, n), c[i*ldc + j] += sum_{k < kc} a[i*lda + k] * b[k*ldb + j], k
  // ascending per element.
  //
  // skip_zeros (MatMul): zero a-entries (+0.0 and -0.0; NaN is nonzero)
  // add no term, so a zero opposite an inf or NaN in b leaves c finite.
  // The scalar reference skips zeros with a branch. The SIMD tiers hold an
  // R x NV tile of c in registers across the panel (AVX-512: 8 rows x 1
  // vector when n <= 8, else 4 rows x up to 4 vectors per 32-column block;
  // AVX2: 4 x 1 when n <= 4, else 2 x up to 4 per 16-column block).
  // Dropout makes about half of a training step's a-entries zero at
  // random, which a branch mispredicts, so each tile counts the first 16
  // entries of its a-rows and, at least 1/4 nonzero, walks every k with the
  // add masked off (AVX-512) or made an add of -0.0 (AVX2) at zero entries.
  // A sparser tile walks each of its rows over that row's nonzero k,
  // compacted into a stack index list. Both walks give the same bits, so
  // the choice is internal. The sample assumes zeros are spread evenly along a row: a row whose
  // first 16 entries are much denser or sparser than the rest (a
  // frequency-sorted vocabulary, a one-hot prefix) gets the slower walk,
  // never different bits.
  //
  // !skip_zeros (MatMulTransB, on a packed B^T panel): every term is added,
  // as a dot product does, so 0 * inf gives NaN.
  void (*gemm)(const double* a, int64_t lda, int m, int kc, const double* b,
               int64_t ldb, int n, double* c, int64_t ldc, bool skip_zeros);

  // A^T * B over one reduction chunk of kc rows: for i in [0, m), j in
  // [0, n), c[i*ldc + j] += sum_{k < kc, a[k*lda + i] != 0}
  // a[k*lda + i] * b[k*ldb + j], k ascending per element, zero a-entries
  // skipped as gemm skips them. The SIMD tiers count a sample of the
  // chunk's rows of a (the first 128 entries of 32 evenly spaced rows,
  // under the same evenness assumption as gemm's). At least 1/4
  // nonzero, they walk the chunk with tiles of c in registers whose lanes
  // run over rows i of c, so each load of a[k][i..] and its nonzero mask
  // serve every column of the tile (AVX-512: up to 8 columns and 16
  // accumulators, AVX2: 4 and 8), zero entries' adds masked off as in
  // gemm. A sparser chunk runs one rank-1 update per row of a over that
  // row's compacted nonzero entries.
  void (*gemm_ta)(const double* a, int64_t lda, int kc, int m,
                  const double* b, int64_t ldb, int n, double* c,
                  int64_t ldc);

  // One CSR row times a dense block: yrow[c] = sum_e values[e] *
  // x[cols[e]*ldx + c] for c in [0, n), entries ascending per element.
  void (*spmm_row)(const double* values, const int* cols, int64_t nnz,
                   const double* x, int64_t ldx, int n, double* yrow);

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

  // Inverted dropout's keep-mask: takes n draws from the xoshiro256** state
  // s[4] (the layout of RngState::s) and sets bit i of bits[0, (n + 63) /
  // 64) when draw i has (draw >> 11) >= threshold, which is
  // !Bernoulli(p) for threshold = Rng::BernoulliThreshold(p). Bits past n
  // are zero, and s ends where n Next() calls leave it. Element order
  // defines the stream; lanes are jumps: the SIMD tiers split the first
  // whole words into 8 (AVX-512) or 4 (AVX2) equal, contiguous lane
  // ranges, each drawn from the state jumped ahead to its first element
  // (Rng::Jump), and the scalar lane draws the rest from where the last
  // lane stops. Below kMinLanedDraws only the scalar lane runs.
  void (*keep_mask)(uint64_t* s, uint64_t threshold, int64_t n,
                    uint64_t* bits);

  // out[i] = in[i] * (bit first + i of keep ? scale : 0.0) for i in [0, n):
  // inverted dropout applied from its keep-mask, with the products of a
  // per-element mask of doubles (a dropped -x gives -0.0, inf and NaN give
  // NaN).
  void (*masked_scale)(const double* in, const uint64_t* keep, int64_t first,
                       int64_t n, double scale, double* out);
};

// Draw count below which the jump set-up of keep_mask's lanes would cost
// more than the lanes save, so the SIMD tiers run only the scalar lane.
constexpr int64_t kMinLanedDraws = 4096;

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
