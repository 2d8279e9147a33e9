// Register-tiled GEMM kernels shared by the SIMD tiers (contract in
// kernel_ops.h).
//
// ops_avx2.cc and ops_avx512.cc each include this header into their own
// translation unit, compiled with that tier's instruction set, and
// instantiate the templates with a vector-traits type from their anonymous
// namespace, so every instantiation is local to its tier. Everything here
// is a template on V for that reason: a plain inline function would be one
// symbol compiled with two instruction sets.
//
// V provides:
//   Vec; Mask (the nonzero lanes of a Vec); Tail (the valid lanes of a
//     partial vector);
//   kLanes;
//   kNarrowRows, kWideRows: rows of a GEMM tile when n <= kLanes, and when
//     wider (column blocks of up to 4 vectors);
//   kTaCols, kAccRegs, kMaxIv: a MatMulTransA tile is at most kTaCols
//     columns by kMaxIv vectors of rows, with at most kAccRegs accumulators;
//   Set1(x), Load(p), Store(p, v), LoadTail(p, tail), StoreTail(p, tail, v),
//   TailOf(len) (the first len < kLanes lanes), Mul(x, y), Add(x, y),
//   NonzeroOf(v) (lanes != 0; NaN is nonzero), AddIf(acc, nz, prod) (acc +
//   prod on the nz lanes, acc elsewhere, bit for bit), NonzeroBits(a, len,
//   bits) (one byte per kLanes entries of a[0..len), bit l set where that
//   entry is nonzero; returns the count), and
//   CompactBits(bits, len, idx), which writes the ascending indices of the
//   set bits and returns their number (idx holds len rounded up to kLanes).
//
// Each tile keeps its block of outputs in registers across a whole
// reduction. Every output element still adds its terms one at a time in
// ascending k, with the multiply and the add rounded separately, so a tile's
// shape changes which elements advance together, never any element's bits.
// The loops over a tile's rows, vectors and columns carry unroll pragmas:
// at -O2 GCC leaves them rolled and keeps the accumulators on the stack.
#ifndef AUTOHENS_KERNELS_GEMM_TILES_H_
#define AUTOHENS_KERNELS_GEMM_TILES_H_

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "kernels/kernel_ops.h"

namespace ahg::kernels::tiles {

template <int N>
using Int = std::integral_constant<int, N>;

// Column vector v of a block whose last vector (v == nv - 1) is partial
// when kTail. The unrolled loops fold the test away.
template <class V, bool kTail>
inline typename V::Vec LoadCol(const double* p, typename V::Tail tail,
                               bool last) {
  if (kTail && last) return V::LoadTail(p, tail);
  return V::Load(p);
}

template <class V, bool kTail>
inline void StoreCol(double* p, typename V::Tail tail, bool last,
                     typename V::Vec v) {
  if (kTail && last) {
    V::StoreTail(p, tail, v);
  } else {
    V::Store(p, v);
  }
}

// Column blocks over [0, n): blocks of four vectors, then one block of the
// remaining columns, whose last vector is partial when n is not a multiple
// of the lane count. Calls f(Int<NV>, bool_constant<kTail>, j, tail).
template <class V, class F>
inline void ForEachColumnBlock(int n, F&& f) {
  constexpr int kL = V::kLanes;
  int j = 0;
  for (; j + 4 * kL <= n; j += 4 * kL) {
    f(Int<4>(), std::false_type(), j, V::TailOf(0));
  }
  const int rest = n - j;
  if (rest == 0) return;
  const auto tail = V::TailOf(rest % kL);
  const auto call = [&](auto nv) {
    if (rest % kL != 0) {
      f(nv, std::true_type(), j, tail);
    } else {
      f(nv, std::false_type(), j, tail);
    }
  };
  switch ((rest + kL - 1) / kL) {
    case 1: call(Int<1>()); break;
    case 2: call(Int<2>()); break;
    case 3: call(Int<3>()); break;
    default: call(Int<4>()); break;
  }
}

// ---------------------------------------------------------------------------
// MatMul: c[i][j] += sum_k a[i][k] * b[k][j] over one k-panel.
// ---------------------------------------------------------------------------

// R rows of c by NV column vectors, held in registers across the k walk.
// kMasked adds a term only where its a-entry is nonzero; otherwise every
// term is added.
template <class V, int R, int NV, bool kTail, bool kMasked>
inline void GemmTile(const double* a, int64_t lda, int kc, const double* b,
                     int64_t ldb, typename V::Tail tail, double* c,
                     int64_t ldc) {
  using Vec = typename V::Vec;
  constexpr int kL = V::kLanes;
  Vec acc[R][NV];
  #pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    #pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      acc[r][v] = LoadCol<V, kTail>(c + r * ldc + v * kL, tail, v == NV - 1);
    }
  }
  for (int k = 0; k < kc; ++k) {
    const double* brow = b + static_cast<int64_t>(k) * ldb;
    Vec bv[NV];
    #pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      bv[v] = LoadCol<V, kTail>(brow + v * kL, tail, v == NV - 1);
    }
    #pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const Vec av = V::Set1(a[r * lda + k]);
      if constexpr (kMasked) {
        const auto nz = V::NonzeroOf(av);
        #pragma GCC unroll 4
        for (int v = 0; v < NV; ++v) {
          acc[r][v] = V::AddIf(acc[r][v], nz, V::Mul(av, bv[v]));
        }
      } else {
        #pragma GCC unroll 4
        for (int v = 0; v < NV; ++v) {
          acc[r][v] = V::Add(acc[r][v], V::Mul(av, bv[v]));
        }
      }
    }
  }
  #pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    #pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      StoreCol<V, kTail>(c + r * ldc + v * kL, tail, v == NV - 1, acc[r][v]);
    }
  }
}

// One row of c over the compacted nonzero k of its a-row.
template <class V, int NV, bool kTail>
inline void GemmRowCompact(const double* arow, const int* idx, int count,
                           const double* b, int64_t ldb, typename V::Tail tail,
                           double* crow) {
  using Vec = typename V::Vec;
  constexpr int kL = V::kLanes;
  Vec acc[NV];
  #pragma GCC unroll 4
  for (int v = 0; v < NV; ++v) {
    acc[v] = LoadCol<V, kTail>(crow + v * kL, tail, v == NV - 1);
  }
  for (int t = 0; t < count; ++t) {
    const int k = idx[t];
    const Vec av = V::Set1(arow[k]);
    const double* brow = b + static_cast<int64_t>(k) * ldb;
    #pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      acc[v] = V::Add(
          acc[v], V::Mul(av, LoadCol<V, kTail>(brow + v * kL, tail,
                                               v == NV - 1)));
    }
  }
  #pragma GCC unroll 4
  for (int v = 0; v < NV; ++v) {
    StoreCol<V, kTail>(crow + v * kL, tail, v == NV - 1, acc[v]);
  }
}

// Entries of each a-row a MatMul tile counts to choose its walk.
constexpr int kSampleK = 16;

// R rows of c across every column block. With kSkip the tile chooses its
// walk by counting the first kSampleK entries of each of its a-rows (the
// sample assumes zeros are spread evenly along a row). At least 1/4
// nonzero, it walks every k with the add masked off at zero a-entries;
// sparser, it walks each row over that row's compacted nonzero k. Both
// walks add the same terms in the same order, so the sample decides only
// speed, never bits.
template <class V, int R, bool kSkip>
inline void GemmRowTile(const double* a, int64_t lda, int kc, const double* b,
                        int64_t ldb, int n, double* c, int64_t ldc) {
  const auto walk = [&](auto masked) {
    ForEachColumnBlock<V>(n, [&](auto nv, auto tail_c, int j, auto tail) {
      GemmTile<V, R, nv, tail_c, masked>(a, lda, kc, b + j, ldb, tail, c + j,
                                         ldc);
    });
  };
  if constexpr (!kSkip) {
    walk(std::false_type());
  } else {
    uint8_t bits[R][kGemmPanel / V::kLanes];
    const int sample = std::min(kc, kSampleK);
    int nnz = 0;
    for (int r = 0; r < R; ++r) {
      nnz += V::NonzeroBits(a + r * lda, sample, bits[r]);
    }
    if (4 * nnz >= R * sample) {
      walk(std::true_type());
      return;
    }
    // Every row is counted before any is walked, so the rows' loads overlap.
    int counts[R];
    for (int r = 0; r < R; ++r) {
      counts[r] = V::NonzeroBits(a + r * lda, kc, bits[r]);
    }
    for (int r = 0; r < R; ++r) {
      if (counts[r] == 0) continue;
      const double* arow = a + r * lda;
      int idx[kGemmPanel];
      const int count = V::CompactBits(bits[r], kc, idx);
      ForEachColumnBlock<V>(n, [&](auto nv, auto tail_c, int j, auto tail) {
        GemmRowCompact<V, nv, tail_c>(arow, idx, count, b + j, ldb, tail,
                                      c + r * ldc + j);
      });
    }
  }
}

// Rows in tiles of R, the last few in tiles of R/2, R/4, ..., 1.
template <class V, int R, bool kSkip>
inline void GemmRows(const double* a, int64_t lda, int m, int kc,
                     const double* b, int64_t ldb, int n, double* c,
                     int64_t ldc) {
  int i = 0;
  for (; i + R <= m; i += R) {
    GemmRowTile<V, R, kSkip>(a + i * lda, lda, kc, b, ldb, n, c + i * ldc,
                             ldc);
  }
  if constexpr (R > 1) {
    if (i < m) {
      GemmRows<V, R / 2, kSkip>(a + i * lda, lda, m - i, kc, b, ldb, n,
                                c + i * ldc, ldc);
    }
  }
}

template <class V>
void Gemm(const double* a, int64_t lda, int m, int kc, const double* b,
          int64_t ldb, int n, double* c, int64_t ldc, bool skip_zeros) {
  if (m <= 0 || kc <= 0 || n <= 0) return;
  if (n <= V::kLanes) {
    if (skip_zeros) {
      GemmRows<V, V::kNarrowRows, true>(a, lda, m, kc, b, ldb, n, c, ldc);
    } else {
      GemmRows<V, V::kNarrowRows, false>(a, lda, m, kc, b, ldb, n, c, ldc);
    }
  } else if (skip_zeros) {
    GemmRows<V, V::kWideRows, true>(a, lda, m, kc, b, ldb, n, c, ldc);
  } else {
    GemmRows<V, V::kWideRows, false>(a, lda, m, kc, b, ldb, n, c, ldc);
  }
}

// ---------------------------------------------------------------------------
// MatMulTransA: c[i][j] += sum_k a[k][i] * b[k][j] over one reduction chunk.
// ---------------------------------------------------------------------------

// IV vectors of c rows (kLanes rows each; only `rows` of them exist) by JB
// columns, lanes over rows: one load of a[k][i..] serves all JB columns, and
// its nonzero mask is taken once; the add is masked off at zero a-entries.
// The tile is moved in and out of c through a small transposing buffer.
template <class V, int IV, int JB, bool kTail>
inline void TaTile(const double* a, int64_t lda, int kc, const double* b,
                   int64_t ldb, typename V::Tail tail, int rows, double* c,
                   int64_t ldc) {
  using Vec = typename V::Vec;
  constexpr int kL = V::kLanes;
  alignas(64) double buf[JB][IV * kL];
  for (int il = 0; il < IV * kL; ++il) {
    for (int j = 0; j < JB; ++j) buf[j][il] = il < rows ? c[il * ldc + j] : 0.0;
  }
  Vec acc[IV][JB];
  #pragma GCC unroll 8
  for (int v = 0; v < IV; ++v) {
    #pragma GCC unroll 8
    for (int j = 0; j < JB; ++j) acc[v][j] = V::Load(&buf[j][v * kL]);
  }
  for (int k = 0; k < kc; ++k) {
    const double* arow = a + static_cast<int64_t>(k) * lda;
    const double* brow = b + static_cast<int64_t>(k) * ldb;
    Vec av[IV];
    typename V::Mask nz[IV];
    #pragma GCC unroll 8
    for (int v = 0; v < IV; ++v) {
      av[v] = LoadCol<V, kTail>(arow + v * kL, tail, v == IV - 1);
      nz[v] = V::NonzeroOf(av[v]);
    }
    #pragma GCC unroll 8
    for (int j = 0; j < JB; ++j) {
      const Vec bj = V::Set1(brow[j]);
      #pragma GCC unroll 8
      for (int v = 0; v < IV; ++v) {
        acc[v][j] = V::AddIf(acc[v][j], nz[v], V::Mul(av[v], bj));
      }
    }
  }
  #pragma GCC unroll 8
  for (int v = 0; v < IV; ++v) {
    #pragma GCC unroll 8
    for (int j = 0; j < JB; ++j) V::Store(&buf[j][v * kL], acc[v][j]);
  }
  for (int il = 0; il < rows; ++il) {
    for (int j = 0; j < JB; ++j) c[il * ldc + j] = buf[j][il];
  }
}

// The `vecs` whole row vectors from row 0 in tiles of IV, the last few in
// tiles of IV/2, ..., 1.
template <class V, int IV, int JB>
inline void TaVectors(const double* a, int64_t lda, int kc, int vecs,
                      const double* b, int64_t ldb, double* c, int64_t ldc) {
  constexpr int kL = V::kLanes;
  int v = 0;
  for (; v + IV <= vecs; v += IV) {
    TaTile<V, IV, JB, false>(a + v * kL, lda, kc, b, ldb, V::TailOf(0),
                             IV * kL, c + v * kL * ldc, ldc);
  }
  if constexpr (IV > 1) {
    if (v < vecs) {
      TaVectors<V, IV / 2, JB>(a + v * kL, lda, kc, vecs - v, b, ldb,
                               c + v * kL * ldc, ldc);
    }
  }
}

// Every row of c for JB columns: whole vectors, then a partial one.
template <class V, int JB>
inline void TaColumnBlock(const double* a, int64_t lda, int kc, int m,
                          const double* b, int64_t ldb, double* c,
                          int64_t ldc) {
  constexpr int kL = V::kLanes;
  constexpr int kIv = std::min(V::kMaxIv, std::max(1, V::kAccRegs / JB));
  const int vecs = m / kL;
  TaVectors<V, kIv, JB>(a, lda, kc, vecs, b, ldb, c, ldc);
  if (m % kL != 0) {
    const int i0 = vecs * kL;
    TaTile<V, 1, JB, true>(a + i0, lda, kc, b, ldb, V::TailOf(m % kL), m % kL,
                           c + i0 * ldc, ldc);
  }
}

// Columns in blocks of JB, the last few in blocks of JB/2, ..., 1.
template <class V, int JB>
inline void TaColumns(const double* a, int64_t lda, int kc, int m,
                      const double* b, int64_t ldb, int n, double* c,
                      int64_t ldc) {
  int j = 0;
  for (; j + JB <= n; j += JB) {
    TaColumnBlock<V, JB>(a, lda, kc, m, b + j, ldb, c + j, ldc);
  }
  if constexpr (JB > 1) {
    if (j < n) {
      TaColumns<V, JB / 2>(a, lda, kc, m, b + j, ldb, n - j, c + j, ldc);
    }
  }
}

// One rank-1 update per nonzero a-entry of a sparse chunk: NV column
// vectors of b's row k stay in registers while the walk visits rows of c.
template <class V, int NV, bool kTail>
inline void RankOneCompact(const double* arow, const int* idx, int count,
                           const double* brow, typename V::Tail tail,
                           double* c, int64_t ldc) {
  using Vec = typename V::Vec;
  constexpr int kL = V::kLanes;
  Vec bv[NV];
  #pragma GCC unroll 4
  for (int v = 0; v < NV; ++v) {
    bv[v] = LoadCol<V, kTail>(brow + v * kL, tail, v == NV - 1);
  }
  for (int t = 0; t < count; ++t) {
    const int i = idx[t];
    const Vec av = V::Set1(arow[i]);
    double* crow = c + static_cast<int64_t>(i) * ldc;
    #pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      const Vec cv = LoadCol<V, kTail>(crow + v * kL, tail, v == NV - 1);
      StoreCol<V, kTail>(crow + v * kL, tail, v == NV - 1,
                         V::Add(cv, V::Mul(av, bv[v])));
    }
  }
}

// Rows of a a MatMulTransA chunk counts to choose its walk.
constexpr int kTaSampleRows = 32;

// The walk is chosen by counting the first kGemmPanel entries of
// kTaSampleRows evenly spaced rows of a (assuming, as GemmRowTile does, that
// zeros are spread evenly). At least 1/4 nonzero, the tiles walk the whole
// chunk with the add masked off at zero a-entries. Sparser, one rank-1
// update runs per row of a over that row's compacted nonzero entries, in
// kGemmPanel-entry pieces. Both walks give the same bits.
template <class V>
void GemmTransA(const double* a, int64_t lda, int kc, int m, const double* b,
                int64_t ldb, int n, double* c, int64_t ldc) {
  if (kc <= 0 || m <= 0 || n <= 0) return;
  uint8_t bits[kGemmPanel / V::kLanes];
  const int sample = std::min(m, kGemmPanel);
  const int stride = std::max(1, kc / kTaSampleRows);
  int64_t nnz = 0, sampled = 0;
  for (int k = 0; k < kc; k += stride) {
    nnz += V::NonzeroBits(a + k * lda, sample, bits);
    sampled += sample;
  }
  if (4 * nnz >= sampled) {
    TaColumns<V, V::kTaCols>(a, lda, kc, m, b, ldb, n, c, ldc);
    return;
  }
  for (int k = 0; k < kc; ++k) {
    const double* arow = a + k * lda;
    const double* brow = b + k * ldb;
    for (int i0 = 0; i0 < m; i0 += kGemmPanel) {
      const int len = std::min(kGemmPanel, m - i0);
      if (V::NonzeroBits(arow + i0, len, bits) == 0) continue;
      int idx[kGemmPanel];
      const int count = V::CompactBits(bits, len, idx);
      ForEachColumnBlock<V>(n, [&](auto nv, auto tail_c, int j, auto tail) {
        RankOneCompact<V, nv, tail_c>(arow + i0, idx, count, brow + j, tail,
                                      c + i0 * ldc + j, ldc);
      });
    }
  }
}

}  // namespace ahg::kernels::tiles

#endif  // AUTOHENS_KERNELS_GEMM_TILES_H_
