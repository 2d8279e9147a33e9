// AVX-512 tier: 8-lane double vectors (zmm), multiply and add kept separate
// (no FMA — compiled with -ffp-contract=off, no fmadd intrinsics), tails
// identical to the reference. Requires AVX-512 F+VL+DQ and POPCNT at
// runtime (checked by dispatch); the GEMM and rank-1 column remainders are
// lane-masked zmm blocks, the 4-lane SpMM and dot blocks VL-encoded ymm ops.
#include "kernels/kernel_ops.h"

#if defined(__AVX512F__) && defined(__AVX512VL__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <type_traits>

namespace ahg::kernels {
namespace {

// Zero-skip without a branch (contract in kernel_ops.h). The a-entries of
// a GEMM row or a rank-1 update are taken kWalkPanel at a time: each panel
// is first counted (vector compare + popcount), then walked either densely,
// every index with the add masked off where the a-entry is zero, or — when
// fewer than a quarter are nonzero — over the compacted nonzero indices
// only. Both walks add the same terms in the same ascending order.
constexpr int kWalkPanel = 128;

inline __mmask8 TailMask(int len) {
  return len >= 8 ? __mmask8{0xFF} : static_cast<__mmask8>((1u << len) - 1);
}

// Nonzero lanes of a[0..len) (NaN counts, +-0.0 does not), one 8-bit mask
// per 8 entries; returns their number.
inline int NonzeroMasks(const double* a, int len, __mmask8* masks) {
  const __m512d zero = _mm512_setzero_pd();
  int nnz = 0;
  for (int i = 0, g = 0; i < len; i += 8, ++g) {
    const __mmask8 lm = TailMask(len - i);
    const __mmask8 m = _mm512_mask_cmp_pd_mask(
        lm, _mm512_maskz_loadu_pd(lm, a + i), zero, _CMP_NEQ_UQ);
    masks[g] = m;
    nnz += __builtin_popcount(m);
  }
  return nnz;
}

// Ascending indices of the nonzero lanes. Compresses in a register and
// stores all 8 lanes, so idx must hold len rounded up to a multiple of 8.
inline void CompactNonzero(const __mmask8* masks, int len, int* idx) {
  __m256i iv = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i step = _mm256_set1_epi32(8);
  int count = 0;
  for (int g = 0; 8 * g < len; ++g) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(idx + count),
                        _mm256_maskz_compress_epi32(masks[g], iv));
    count += __builtin_popcount(masks[g]);
    iv = _mm256_add_epi32(iv, step);
  }
}

// Column loads/stores; kTail masks the lanes past the row's end (cm).
template <bool kTail>
inline __m512d LoadCols(const double* p, __mmask8 cm) {
  if constexpr (kTail) return _mm512_maskz_loadu_pd(cm, p);
  return _mm512_loadu_pd(p);
}

template <bool kTail>
inline void StoreCols(double* p, __mmask8 cm, __m512d v) {
  if constexpr (kTail) {
    _mm512_mask_storeu_pd(p, cm, v);
  } else {
    _mm512_storeu_pd(p, v);
  }
}

// acc + a*b, the add kept only where a != 0 on the dense walk.
template <bool kDense>
inline __m512d AddTerm(__m512d acc, __m512d av, __mmask8 nz, __m512d bv) {
  const __m512d prod = _mm512_mul_pd(av, bv);
  if constexpr (kDense) return _mm512_mask_add_pd(acc, nz, acc, prod);
  return _mm512_add_pd(acc, prod);
}

// One GEMM column block of NV 8-wide accumulators held across the walk
// (kTail: NV == 1 and only the cm lanes exist). The v loops here and in
// GerBlock are unrolled explicitly: -O2 leaves NV = 4 rolled and spills
// the vectors to the stack.
template <int NV, bool kDense, bool kTail>
inline void PanelBlock(const double* a, const int* idx, int count,
                       const double* b, int64_t ldb, __mmask8 cm,
                       double* crow) {
  const __m512d zero = _mm512_setzero_pd();
  __m512d acc[NV];
  #pragma GCC unroll 4
  for (int v = 0; v < NV; ++v) acc[v] = LoadCols<kTail>(crow + 8 * v, cm);
  for (int t = 0; t < count; ++t) {
    const int k = kDense ? t : idx[t];
    const __m512d av = _mm512_set1_pd(a[k]);
    const __mmask8 nz = _mm512_cmp_pd_mask(av, zero, _CMP_NEQ_UQ);
    const double* brow = b + static_cast<int64_t>(k) * ldb;
    #pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      acc[v] = AddTerm<kDense>(acc[v], av, nz,
                               LoadCols<kTail>(brow + 8 * v, cm));
    }
  }
  #pragma GCC unroll 4
  for (int v = 0; v < NV; ++v) StoreCols<kTail>(crow + 8 * v, cm, acc[v]);
}

// One rank-1 column block: NV 8-wide vectors of b stay in registers while
// the walk visits rows of c.
template <int NV, bool kDense, bool kTail>
inline void GerBlock(const double* a, const int* idx, int count,
                     const double* b, __mmask8 cm, double* c, int64_t ldc) {
  const __m512d zero = _mm512_setzero_pd();
  __m512d bv[NV];
  #pragma GCC unroll 4
  for (int v = 0; v < NV; ++v) bv[v] = LoadCols<kTail>(b + 8 * v, cm);
  for (int t = 0; t < count; ++t) {
    const int i = kDense ? t : idx[t];
    const __m512d av = _mm512_set1_pd(a[i]);
    const __mmask8 nz = _mm512_cmp_pd_mask(av, zero, _CMP_NEQ_UQ);
    double* crow = c + static_cast<int64_t>(i) * ldc;
    #pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      StoreCols<kTail>(crow + 8 * v, cm,
                       AddTerm<kDense>(LoadCols<kTail>(crow + 8 * v, cm), av,
                                       nz, bv[v]));
    }
  }
}

// 32 columns per block, then 16, 8 and one lane-masked remainder.
template <bool kDense>
inline void PanelColumns(const double* a, const int* idx, int count,
                         const double* b, int64_t ldb, int n, double* crow) {
  int j = 0;
  for (; j + 32 <= n; j += 32) {
    PanelBlock<4, kDense, false>(a, idx, count, b + j, ldb, 0xFF, crow + j);
  }
  for (; j + 16 <= n; j += 16) {
    PanelBlock<2, kDense, false>(a, idx, count, b + j, ldb, 0xFF, crow + j);
  }
  for (; j + 8 <= n; j += 8) {
    PanelBlock<1, kDense, false>(a, idx, count, b + j, ldb, 0xFF, crow + j);
  }
  if (j < n) {
    PanelBlock<1, kDense, true>(a, idx, count, b + j, ldb, TailMask(n - j),
                                crow + j);
  }
}

template <bool kDense>
inline void GerColumns(const double* a, const int* idx, int count,
                       const double* b, int n, double* c, int64_t ldc) {
  int j = 0;
  for (; j + 32 <= n; j += 32) {
    GerBlock<4, kDense, false>(a, idx, count, b + j, 0xFF, c + j, ldc);
  }
  for (; j + 16 <= n; j += 16) {
    GerBlock<2, kDense, false>(a, idx, count, b + j, 0xFF, c + j, ldc);
  }
  for (; j + 8 <= n; j += 8) {
    GerBlock<1, kDense, false>(a, idx, count, b + j, 0xFF, c + j, ldc);
  }
  if (j < n) {
    GerBlock<1, kDense, true>(a, idx, count, b + j, TailMask(n - j), c + j,
                              ldc);
  }
}

// Walks a[0..len) panel by panel: walk(begin, dense, idx, count) runs
// either the dense walk (dense is std::true_type, idx null, count = panel
// length) or the compacted one over `count` nonzero indices in idx.
template <typename Walk>
inline void ForEachPanel(const double* a, int len, Walk walk) {
  for (int begin = 0; begin < len; begin += kWalkPanel) {
    const int n = std::min(kWalkPanel, len - begin);
    __mmask8 masks[kWalkPanel / 8];
    const int nnz = NonzeroMasks(a + begin, n, masks);
    if (4 * nnz >= n) {
      walk(begin, std::true_type(), nullptr, n);
    } else if (nnz > 0) {
      int idx[kWalkPanel];
      CompactNonzero(masks, n, idx);
      walk(begin, std::false_type(), idx, nnz);
    }
  }
}

void GemmPanelAvx512(const double* arow, int kc, const double* b, int64_t ldb,
                     int n, double* crow) {
  ForEachPanel(arow, kc, [&](int k0, auto dense, const int* idx, int count) {
    PanelColumns<dense>(arow + k0, idx, count,
                        b + static_cast<int64_t>(k0) * ldb, ldb, n, crow);
  });
}

void GerRowsAvx512(const double* a, int m, const double* b, int n, double* c,
                   int64_t ldc) {
  ForEachPanel(a, m, [&](int i0, auto dense, const int* idx, int count) {
    GerColumns<dense>(a + i0, idx, count, b, n,
                      c + static_cast<int64_t>(i0) * ldc, ldc);
  });
}

template <int NV>
inline void SpmmRowBlock(const double* values, const int* cols, int64_t nnz,
                         const double* x, int64_t ldx, double* yrow) {
  __m512d acc[NV];
  for (int v = 0; v < NV; ++v) acc[v] = _mm512_setzero_pd();
  for (int64_t e = 0; e < nnz; ++e) {
    const __m512d ve = _mm512_set1_pd(values[e]);
    const double* xrow = x + static_cast<int64_t>(cols[e]) * ldx;
    for (int v = 0; v < NV; ++v) {
      acc[v] = _mm512_add_pd(acc[v],
                             _mm512_mul_pd(ve, _mm512_loadu_pd(xrow + 8 * v)));
    }
  }
  for (int v = 0; v < NV; ++v) _mm512_storeu_pd(yrow + 8 * v, acc[v]);
}

inline void SpmmRowBlock4(const double* values, const int* cols, int64_t nnz,
                          const double* x, int64_t ldx, double* yrow) {
  __m256d acc = _mm256_setzero_pd();
  for (int64_t e = 0; e < nnz; ++e) {
    const __m256d ve = _mm256_set1_pd(values[e]);
    const double* xrow = x + static_cast<int64_t>(cols[e]) * ldx;
    acc = _mm256_add_pd(acc, _mm256_mul_pd(ve, _mm256_loadu_pd(xrow)));
  }
  _mm256_storeu_pd(yrow, acc);
}

void SpmmRowAvx512(const double* values, const int* cols, int64_t nnz,
                   const double* x, int64_t ldx, int n, double* yrow) {
  int c = 0;
  for (; c + 32 <= n; c += 32) SpmmRowBlock<4>(values, cols, nnz, x + c, ldx, yrow + c);
  for (; c + 16 <= n; c += 16) SpmmRowBlock<2>(values, cols, nnz, x + c, ldx, yrow + c);
  for (; c + 8 <= n; c += 8) SpmmRowBlock<1>(values, cols, nnz, x + c, ldx, yrow + c);
  for (; c + 4 <= n; c += 4) SpmmRowBlock4(values, cols, nnz, x + c, ldx, yrow + c);
  for (; c < n; ++c) {
    double acc = 0.0;
    for (int64_t e = 0; e < nnz; ++e) {
      acc += values[e] * x[static_cast<int64_t>(cols[e]) * ldx + c];
    }
    yrow[c] = acc;
  }
}

// Same 4x4-transpose dot block as the AVX2 tier (VL-encoded); an 8-row zmm
// transpose buys little for the k-dot shape, so the 4-wide form is kept.
void Dot4Avx512(const double* arow, const double* b0, const double* b1,
                const double* b2, const double* b3, int n, double* out) {
  __m256d acc = _mm256_setzero_pd();
  int k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d r0 = _mm256_loadu_pd(b0 + k);
    const __m256d r1 = _mm256_loadu_pd(b1 + k);
    const __m256d r2 = _mm256_loadu_pd(b2 + k);
    const __m256d r3 = _mm256_loadu_pd(b3 + k);
    const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
    const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
    const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
    const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
    const __m256d c0 = _mm256_permute2f128_pd(t0, t2, 0x20);
    const __m256d c1 = _mm256_permute2f128_pd(t1, t3, 0x20);
    const __m256d c2 = _mm256_permute2f128_pd(t0, t2, 0x31);
    const __m256d c3 = _mm256_permute2f128_pd(t1, t3, 0x31);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(arow[k]), c0));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(arow[k + 1]), c1));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(arow[k + 2]), c2));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(arow[k + 3]), c3));
  }
  _mm256_storeu_pd(out, acc);
  for (; k < n; ++k) {
    const double av = arow[k];
    out[0] += av * b0[k];
    out[1] += av * b1[k];
    out[2] += av * b2[k];
    out[3] += av * b3[k];
  }
}

double RowMaxAvx512(const double* x, int n) {
  int c;
  double m;
  if (n >= 8) {
    __m512d vm = _mm512_loadu_pd(x);
    for (c = 8; c + 8 <= n; c += 8) {
      vm = _mm512_max_pd(vm, _mm512_loadu_pd(x + c));
    }
    m = _mm512_reduce_max_pd(vm);
  } else {
    m = x[0];
    c = 1;
  }
  for (; c < n; ++c) m = std::max(m, x[c]);
  return m;
}

void DivInplaceAvx512(double* x, int n, double denom) {
  const __m512d vd = _mm512_set1_pd(denom);
  int c = 0;
  for (; c + 8 <= n; c += 8) {
    _mm512_storeu_pd(x + c, _mm512_div_pd(_mm512_loadu_pd(x + c), vd));
  }
  for (; c < n; ++c) x[c] /= denom;
}

void SubScalarAvx512(const double* x, int n, double s, double* out) {
  const __m512d vs = _mm512_set1_pd(s);
  int c = 0;
  for (; c + 8 <= n; c += 8) {
    _mm512_storeu_pd(out + c, _mm512_sub_pd(_mm512_loadu_pd(x + c), vs));
  }
  for (; c < n; ++c) out[c] = x[c] - s;
}

void BiasReluRowAvx512(double* x, const double* bias, int n) {
  const __m512d zero = _mm512_setzero_pd();
  int c = 0;
  if (bias != nullptr) {
    for (; c + 8 <= n; c += 8) {
      const __m512d v =
          _mm512_add_pd(_mm512_loadu_pd(x + c), _mm512_loadu_pd(bias + c));
      _mm512_storeu_pd(x + c, _mm512_max_pd(v, zero));
    }
    for (; c < n; ++c) {
      const double v = x[c] + bias[c];
      x[c] = v > 0.0 ? v : 0.0;
    }
  } else {
    for (; c + 8 <= n; c += 8) {
      _mm512_storeu_pd(x + c, _mm512_max_pd(_mm512_loadu_pd(x + c), zero));
    }
    for (; c < n; ++c) {
      const double v = x[c];
      x[c] = v > 0.0 ? v : 0.0;
    }
  }
}

void AddInplaceAvx512(double* x, const double* y, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        x + i, _mm512_add_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i)));
  }
  for (; i < n; ++i) x[i] += y[i];
}

void AxpyInplaceAvx512(double* x, double alpha, const double* y, int64_t n) {
  const __m512d va = _mm512_set1_pd(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d prod = _mm512_mul_pd(va, _mm512_loadu_pd(y + i));
    _mm512_storeu_pd(x + i, _mm512_add_pd(_mm512_loadu_pd(x + i), prod));
  }
  for (; i < n; ++i) x[i] += alpha * y[i];
}

void ScaleInplaceAvx512(double* x, double alpha, int64_t n) {
  const __m512d va = _mm512_set1_pd(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(x + i, _mm512_mul_pd(_mm512_loadu_pd(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void CWiseMulAvx512(const double* a, const double* b, int64_t n, double* out) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        out + i, _mm512_mul_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

constexpr TierOps kAvx512OpsTable = {
    Tier::kAvx512,
    GemmPanelAvx512,
    GerRowsAvx512,
    SpmmRowAvx512,
    Dot4Avx512,
    RowMaxAvx512,
    DivInplaceAvx512,
    SubScalarAvx512,
    BiasReluRowAvx512,
    AddInplaceAvx512,
    AxpyInplaceAvx512,
    ScaleInplaceAvx512,
    CWiseMulAvx512,
};

}  // namespace

const TierOps* Avx512Ops() { return &kAvx512OpsTable; }

}  // namespace ahg::kernels

#else  // no AVX-512 build support

namespace ahg::kernels {
const TierOps* Avx512Ops() { return nullptr; }
}  // namespace ahg::kernels

#endif
