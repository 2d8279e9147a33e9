// AVX2 tier: 4-lane double vectors, multiply and add kept separate (no FMA
// — this TU is compiled with -mavx2 -mpopcnt -ffp-contract=off and without
// -mfma), tails identical to the reference. Vector lanes are independent
// output elements, so per-element accumulation order matches ops_scalar.cc
// exactly and results are bitwise identical to it. The GEMMs are the shared
// register tiles of kernels/gemm_tiles.h on 4-lane vectors.
#include "kernels/kernel_ops.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "kernels/gemm_tiles.h"
#include "kernels/keep_mask_lanes.h"

namespace ahg::kernels {
namespace {

// Vector traits for the shared GEMM tiles (kernels/gemm_tiles.h): 4 lanes,
// zero-skip by adding -0.0 in the skipped lanes, column tails by
// maskload/maskstore. The tiles are smaller than AVX-512's: 16 vector
// registers, and each mask is one more.
struct Avx2 {
  using Vec = __m256d;
  using Mask = __m256d;
  using Tail = __m256i;
  static constexpr int kLanes = 4;
  static constexpr int kNarrowRows = 4;
  static constexpr int kWideRows = 2;
  static constexpr int kTaCols = 4;
  static constexpr int kAccRegs = 8;
  static constexpr int kMaxIv = 4;

  static Vec Set1(double x) { return _mm256_set1_pd(x); }
  static Vec Load(const double* p) { return _mm256_loadu_pd(p); }
  static void Store(double* p, Vec v) { _mm256_storeu_pd(p, v); }
  // Lane mask for the first `len` (< 4) columns of a remainder block.
  static Tail TailOf(int len) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(len),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
  static Vec LoadTail(const double* p, Tail t) {
    return _mm256_maskload_pd(p, t);
  }
  static void StoreTail(double* p, Tail t, Vec v) {
    _mm256_maskstore_pd(p, t, v);
  }
  static Vec Mul(Vec x, Vec y) { return _mm256_mul_pd(x, y); }
  static Vec Add(Vec x, Vec y) { return _mm256_add_pd(x, y); }
  static Mask NonzeroOf(Vec v) {
    return _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_NEQ_UQ);
  }
  // Off lanes add -0.0, which leaves every acc unchanged (-0.0 and NaN
  // included); +0.0 would turn an acc of -0.0 into +0.0. Two bitwise ops
  // cost less than a blendv, and the add stays the only op on acc's chain.
  static Vec AddIf(Vec acc, Mask nz, Vec prod) {
    const __m256d off = _mm256_andnot_pd(nz, _mm256_set1_pd(-0.0));
    return _mm256_add_pd(acc, _mm256_or_pd(_mm256_and_pd(prod, nz), off));
  }

  // One mask byte per 4 entries of a[0..len); returns the nonzero count.
  static int NonzeroBits(const double* a, int len, uint8_t* bits) {
    int nnz = 0;
    int i = 0, g = 0;
    for (; i + 4 <= len; i += 4, ++g) {
      const int m = _mm256_movemask_pd(NonzeroOf(_mm256_loadu_pd(a + i)));
      bits[g] = static_cast<uint8_t>(m);
      nnz += __builtin_popcount(m);
    }
    if (i < len) {
      int m = 0;
      for (int l = 0; i + l < len; ++l) m |= (a[i + l] != 0.0) << l;
      bits[g] = static_cast<uint8_t>(m);
      nnz += __builtin_popcount(m);
    }
    return nnz;
  }

  // Ascending indices of the set bits, by a branch-free store.
  static int CompactBits(const uint8_t* bits, int len, int* idx) {
    int count = 0;
    for (int g = 0; 4 * g < len; ++g) {
      for (int l = 0; l < 4; ++l) {
        idx[count] = 4 * g + l;
        count += (bits[g] >> l) & 1;
      }
    }
    return count;
  }

  static __m256i RotL(__m256i x, int k) {
    return _mm256_or_si256(_mm256_slli_epi64(x, k),
                           _mm256_srli_epi64(x, 64 - k));
  }

  // xoshiro256** in 4 lanes (kernels/keep_mask_lanes.h). The multiplies
  // by 5 and 9 are shift-adds, exact mod 2^64 as the scalar products are;
  // draw >> 11 and the threshold are below 2^63, so the signed compare
  // decides draw >> 11 > threshold - 1.
  static void DrawLanes(uint64_t lanes[4][4], uint64_t threshold,
                        int64_t lane_words, uint64_t* bits) {
    const auto load = [&](int w) {
      return _mm256_load_si256(reinterpret_cast<const __m256i*>(lanes[w]));
    };
    __m256i s0 = load(0), s1 = load(1), s2 = load(2), s3 = load(3);
    const __m256i below =
        _mm256_set1_epi64x(static_cast<int64_t>(threshold) - 1);
    alignas(32) uint64_t words[4];
    for (int64_t w = 0; w < lane_words; ++w) {
      __m256i word = _mm256_setzero_si256();
      __m256i bit = _mm256_set1_epi64x(1);
      for (int b = 0; b < 64; ++b) {
        const __m256i x5 = _mm256_add_epi64(_mm256_slli_epi64(s1, 2), s1);
        const __m256i r = RotL(x5, 7);
        const __m256i out = _mm256_add_epi64(_mm256_slli_epi64(r, 3), r);
        const __m256i t = _mm256_slli_epi64(s1, 17);
        s2 = _mm256_xor_si256(s2, s0);
        s3 = _mm256_xor_si256(s3, s1);
        s1 = _mm256_xor_si256(s1, s2);
        s0 = _mm256_xor_si256(s0, s3);
        s2 = _mm256_xor_si256(s2, t);
        s3 = RotL(s3, 45);
        const __m256i keep =
            _mm256_cmpgt_epi64(_mm256_srli_epi64(out, 11), below);
        word = _mm256_or_si256(word, _mm256_and_si256(keep, bit));
        bit = _mm256_add_epi64(bit, bit);
      }
      _mm256_store_si256(reinterpret_cast<__m256i*>(words), word);
      for (int j = 0; j < 4; ++j) bits[j * lane_words + w] = words[j];
    }
    const auto store = [&](int w, __m256i v) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes[w]), v);
    };
    store(0, s0);
    store(1, s1);
    store(2, s2);
    store(3, s3);
  }

  static void MaskedScale8(const double* in, unsigned bits8, int count,
                           double scale, double* out) {
    if (count < 8) {
      const double factor[2] = {0.0, scale};
      for (int l = 0; l < count; ++l) out[l] = in[l] * factor[(bits8 >> l) & 1];
      return;
    }
    const __m256i lane_bits = _mm256_setr_epi64x(1, 2, 4, 8);
    const __m256d vscale = _mm256_set1_pd(scale);
    for (int h = 0; h < 2; ++h) {
      const __m256i set = _mm256_and_si256(
          _mm256_set1_epi64x((bits8 >> (4 * h)) & 0xF), lane_bits);
      const __m256d factor = _mm256_and_pd(
          _mm256_castsi256_pd(_mm256_cmpeq_epi64(set, lane_bits)), vscale);
      _mm256_storeu_pd(out + 4 * h,
                       _mm256_mul_pd(_mm256_loadu_pd(in + 4 * h), factor));
    }
  }
};

void GemmAvx2(const double* a, int64_t lda, int m, int kc, const double* b,
              int64_t ldb, int n, double* c, int64_t ldc, bool skip_zeros) {
  tiles::Gemm<Avx2>(a, lda, m, kc, b, ldb, n, c, ldc, skip_zeros);
}

void GemmTransAAvx2(const double* a, int64_t lda, int kc, int m,
                    const double* b, int64_t ldb, int n, double* c,
                    int64_t ldc) {
  tiles::GemmTransA<Avx2>(a, lda, kc, m, b, ldb, n, c, ldc);
}

template <int NV>
inline void SpmmRowBlock(const double* values, const int* cols, int64_t nnz,
                         const double* x, int64_t ldx, double* yrow) {
  __m256d acc[NV];
  for (int v = 0; v < NV; ++v) acc[v] = _mm256_setzero_pd();
  for (int64_t e = 0; e < nnz; ++e) {
    const __m256d ve = _mm256_set1_pd(values[e]);
    const double* xrow = x + static_cast<int64_t>(cols[e]) * ldx;
    for (int v = 0; v < NV; ++v) {
      acc[v] = _mm256_add_pd(acc[v],
                             _mm256_mul_pd(ve, _mm256_loadu_pd(xrow + 4 * v)));
    }
  }
  for (int v = 0; v < NV; ++v) _mm256_storeu_pd(yrow + 4 * v, acc[v]);
}

void SpmmRowAvx2(const double* values, const int* cols, int64_t nnz,
                 const double* x, int64_t ldx, int n, double* yrow) {
  int c = 0;
  for (; c + 16 <= n; c += 16) SpmmRowBlock<4>(values, cols, nnz, x + c, ldx, yrow + c);
  for (; c + 8 <= n; c += 8) SpmmRowBlock<2>(values, cols, nnz, x + c, ldx, yrow + c);
  for (; c + 4 <= n; c += 4) SpmmRowBlock<1>(values, cols, nnz, x + c, ldx, yrow + c);
  for (; c < n; ++c) {
    double acc = 0.0;
    for (int64_t e = 0; e < nnz; ++e) {
      acc += values[e] * x[static_cast<int64_t>(cols[e]) * ldx + c];
    }
    yrow[c] = acc;
  }
}

double RowMaxAvx2(const double* x, int n) {
  int c;
  double m;
  if (n >= 4) {
    __m256d vm = _mm256_loadu_pd(x);
    for (c = 4; c + 4 <= n; c += 4) {
      vm = _mm256_max_pd(vm, _mm256_loadu_pd(x + c));
    }
    const __m128d lo = _mm256_castpd256_pd128(vm);
    const __m128d hi = _mm256_extractf128_pd(vm, 1);
    const __m128d m2 = _mm_max_pd(lo, hi);
    const __m128d m1 = _mm_max_sd(m2, _mm_unpackhi_pd(m2, m2));
    m = _mm_cvtsd_f64(m1);
  } else {
    m = x[0];
    c = 1;
  }
  for (; c < n; ++c) m = std::max(m, x[c]);
  return m;
}

void DivInplaceAvx2(double* x, int n, double denom) {
  const __m256d vd = _mm256_set1_pd(denom);
  int c = 0;
  for (; c + 4 <= n; c += 4) {
    _mm256_storeu_pd(x + c, _mm256_div_pd(_mm256_loadu_pd(x + c), vd));
  }
  for (; c < n; ++c) x[c] /= denom;
}

void SubScalarAvx2(const double* x, int n, double s, double* out) {
  const __m256d vs = _mm256_set1_pd(s);
  int c = 0;
  for (; c + 4 <= n; c += 4) {
    _mm256_storeu_pd(out + c, _mm256_sub_pd(_mm256_loadu_pd(x + c), vs));
  }
  for (; c < n; ++c) out[c] = x[c] - s;
}

void BiasReluRowAvx2(double* x, const double* bias, int n) {
  // max_pd(v, +0.0) returns +0.0 when v is -0.0, 0.0, or NaN — exactly the
  // scalar `v > 0 ? v : 0.0`.
  const __m256d zero = _mm256_setzero_pd();
  int c = 0;
  if (bias != nullptr) {
    for (; c + 4 <= n; c += 4) {
      const __m256d v =
          _mm256_add_pd(_mm256_loadu_pd(x + c), _mm256_loadu_pd(bias + c));
      _mm256_storeu_pd(x + c, _mm256_max_pd(v, zero));
    }
    for (; c < n; ++c) {
      const double v = x[c] + bias[c];
      x[c] = v > 0.0 ? v : 0.0;
    }
  } else {
    for (; c + 4 <= n; c += 4) {
      _mm256_storeu_pd(x + c, _mm256_max_pd(_mm256_loadu_pd(x + c), zero));
    }
    for (; c < n; ++c) {
      const double v = x[c];
      x[c] = v > 0.0 ? v : 0.0;
    }
  }
}

void AddInplaceAvx2(double* x, const double* y, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        x + i, _mm256_add_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) x[i] += y[i];
}

void AxpyInplaceAvx2(double* x, double alpha, const double* y, int64_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(y + i));
    _mm256_storeu_pd(x + i, _mm256_add_pd(_mm256_loadu_pd(x + i), prod));
  }
  for (; i < n; ++i) x[i] += alpha * y[i];
}

void ScaleInplaceAvx2(double* x, double alpha, int64_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void CWiseMulAvx2(const double* a, const double* b, int64_t n, double* out) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void KeepMaskAvx2(uint64_t* s, uint64_t threshold, int64_t n,
                  uint64_t* bits) {
  lanes::KeepMask<Avx2>(s, threshold, n, bits);
}

void MaskedScaleAvx2(const double* in, const uint64_t* keep, int64_t first,
                     int64_t n, double scale, double* out) {
  lanes::MaskedScale<Avx2>(in, keep, first, n, scale, out);
}

constexpr TierOps kAvx2OpsTable = {
    Tier::kAvx2,
    GemmAvx2,
    GemmTransAAvx2,
    SpmmRowAvx2,
    RowMaxAvx2,
    DivInplaceAvx2,
    SubScalarAvx2,
    BiasReluRowAvx2,
    AddInplaceAvx2,
    AxpyInplaceAvx2,
    ScaleInplaceAvx2,
    CWiseMulAvx2,
    KeepMaskAvx2,
    MaskedScaleAvx2,
};

}  // namespace

const TierOps* Avx2Ops() { return &kAvx2OpsTable; }

}  // namespace ahg::kernels

#else  // !defined(__AVX2__)

namespace ahg::kernels {
const TierOps* Avx2Ops() { return nullptr; }
}  // namespace ahg::kernels

#endif
