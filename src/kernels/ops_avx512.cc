// AVX-512 tier: 8-lane double vectors (zmm), multiply and add kept separate
// (no FMA — compiled with -ffp-contract=off, no fmadd intrinsics), tails
// identical to the reference. Requires AVX-512 F+VL+DQ and POPCNT at
// runtime (checked by dispatch). The GEMMs are the shared register tiles of
// kernels/gemm_tiles.h on 8-lane vectors, with zero-skip by a masked add and
// lane-masked column remainders; the 4-lane SpMM block and the index
// compaction are VL-encoded ymm ops.
#include "kernels/kernel_ops.h"

#if defined(__AVX512F__) && defined(__AVX512VL__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "kernels/gemm_tiles.h"
#include "kernels/keep_mask_lanes.h"

namespace ahg::kernels {
namespace {

inline __mmask8 TailMask(int len) {
  return len >= 8 ? __mmask8{0xFF} : static_cast<__mmask8>((1u << len) - 1);
}

// Vector traits for the shared GEMM tiles (kernels/gemm_tiles.h): 8 lanes,
// zero-skip by a masked add, column tails by lane-masked loads and stores.
struct Avx512 {
  using Vec = __m512d;
  using Mask = __mmask8;
  using Tail = __mmask8;
  static constexpr int kLanes = 8;
  static constexpr int kNarrowRows = 8;
  static constexpr int kWideRows = 4;
  static constexpr int kTaCols = 8;
  static constexpr int kAccRegs = 16;
  static constexpr int kMaxIv = 8;

  static Vec Set1(double x) { return _mm512_set1_pd(x); }
  static Vec Load(const double* p) { return _mm512_loadu_pd(p); }
  static void Store(double* p, Vec v) { _mm512_storeu_pd(p, v); }
  static Tail TailOf(int len) { return TailMask(len); }
  static Vec LoadTail(const double* p, Tail t) {
    return _mm512_maskz_loadu_pd(t, p);
  }
  static void StoreTail(double* p, Tail t, Vec v) {
    _mm512_mask_storeu_pd(p, t, v);
  }
  static Vec Mul(Vec x, Vec y) { return _mm512_mul_pd(x, y); }
  static Vec Add(Vec x, Vec y) { return _mm512_add_pd(x, y); }
  static Mask NonzeroOf(Vec v) {
    return _mm512_cmp_pd_mask(v, _mm512_setzero_pd(), _CMP_NEQ_UQ);
  }
  static Vec AddIf(Vec acc, Mask nz, Vec prod) {
    return _mm512_mask_add_pd(acc, nz, acc, prod);
  }

  // One mask byte per 8 entries of a[0..len); returns the nonzero count.
  static int NonzeroBits(const double* a, int len, uint8_t* bits) {
    int nnz = 0;
    for (int i = 0, g = 0; i < len; i += 8, ++g) {
      const __mmask8 m =
          NonzeroOf(_mm512_maskz_loadu_pd(TailMask(len - i), a + i));
      bits[g] = m;
      nnz += __builtin_popcount(m);
    }
    return nnz;
  }

  // Compresses each mask byte's indices in a register and stores all 8
  // lanes, so idx must hold len rounded up to a multiple of 8.
  static int CompactBits(const uint8_t* bits, int len, int* idx) {
    __m256i iv = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i step = _mm256_set1_epi32(8);
    int count = 0;
    for (int g = 0; 8 * g < len; ++g) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(idx + count),
                          _mm256_maskz_compress_epi32(bits[g], iv));
      count += __builtin_popcount(bits[g]);
      iv = _mm256_add_epi32(iv, step);
    }
    return count;
  }

  // Shifts and rotates with every lane selected: GCC 12 reports the
  // undefined pass-through operand of the unmasked forms as
  // maybe-uninitialized.
  static __m512i Shl(__m512i x, int k) {
    return _mm512_maskz_slli_epi64(0xFF, x, k);
  }
  static __m512i Shr(__m512i x, int k) {
    return _mm512_maskz_srli_epi64(0xFF, x, k);
  }
  static __m512i RotL(__m512i x, int k) {
    return _mm512_maskz_rol_epi64(0xFF, x, k);
  }

  // xoshiro256** in 8 lanes (kernels/keep_mask_lanes.h). The multiplies
  // by 5 and 9 are shift-adds, exact mod 2^64 as the scalar products are.
  static void DrawLanes(uint64_t lanes[4][8], uint64_t threshold,
                        int64_t lane_words, uint64_t* bits) {
    __m512i s0 = _mm512_load_si512(lanes[0]);
    __m512i s1 = _mm512_load_si512(lanes[1]);
    __m512i s2 = _mm512_load_si512(lanes[2]);
    __m512i s3 = _mm512_load_si512(lanes[3]);
    const __m512i thr = _mm512_set1_epi64(static_cast<int64_t>(threshold));
    const __m512i first_word = _mm512_mullo_epi64(
        _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7), _mm512_set1_epi64(lane_words));
    for (int64_t w = 0; w < lane_words; ++w) {
      __m512i word = _mm512_setzero_si512();
      __m512i bit = _mm512_set1_epi64(1);
      for (int b = 0; b < 64; ++b) {
        const __m512i x5 = _mm512_add_epi64(Shl(s1, 2), s1);
        const __m512i r = RotL(x5, 7);
        const __m512i out = _mm512_add_epi64(Shl(r, 3), r);
        const __m512i t = Shl(s1, 17);
        s2 = _mm512_xor_si512(s2, s0);
        s3 = _mm512_xor_si512(s3, s1);
        s1 = _mm512_xor_si512(s1, s2);
        s0 = _mm512_xor_si512(s0, s3);
        s2 = _mm512_xor_si512(s2, t);
        s3 = RotL(s3, 45);
        const __mmask8 keep = _mm512_cmpge_epu64_mask(Shr(out, 11), thr);
        word = _mm512_mask_or_epi64(word, keep, word, bit);
        bit = _mm512_add_epi64(bit, bit);
      }
      _mm512_i64scatter_epi64(bits + w, first_word, word, 8);
    }
    _mm512_store_si512(lanes[0], s0);
    _mm512_store_si512(lanes[1], s1);
    _mm512_store_si512(lanes[2], s2);
    _mm512_store_si512(lanes[3], s3);
  }

  static void MaskedScale8(const double* in, unsigned bits8, int count,
                           double scale, double* out) {
    const __mmask8 valid = TailMask(count);
    const __m512d factor =
        _mm512_maskz_mov_pd(static_cast<__mmask8>(bits8), _mm512_set1_pd(scale));
    _mm512_mask_storeu_pd(
        out, valid, _mm512_mul_pd(_mm512_maskz_loadu_pd(valid, in), factor));
  }
};

void GemmAvx512(const double* a, int64_t lda, int m, int kc, const double* b,
                int64_t ldb, int n, double* c, int64_t ldc, bool skip_zeros) {
  tiles::Gemm<Avx512>(a, lda, m, kc, b, ldb, n, c, ldc, skip_zeros);
}

void GemmTransAAvx512(const double* a, int64_t lda, int kc, int m,
                      const double* b, int64_t ldb, int n, double* c,
                      int64_t ldc) {
  tiles::GemmTransA<Avx512>(a, lda, kc, m, b, ldb, n, c, ldc);
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

void KeepMaskAvx512(uint64_t* s, uint64_t threshold, int64_t n,
                    uint64_t* bits) {
  lanes::KeepMask<Avx512>(s, threshold, n, bits);
}

void MaskedScaleAvx512(const double* in, const uint64_t* keep, int64_t first,
                       int64_t n, double scale, double* out) {
  lanes::MaskedScale<Avx512>(in, keep, first, n, scale, out);
}

constexpr TierOps kAvx512OpsTable = {
    Tier::kAvx512,
    GemmAvx512,
    GemmTransAAvx512,
    SpmmRowAvx512,
    RowMaxAvx512,
    DivInplaceAvx512,
    SubScalarAvx512,
    BiasReluRowAvx512,
    AddInplaceAvx512,
    AxpyInplaceAvx512,
    ScaleInplaceAvx512,
    CWiseMulAvx512,
    KeepMaskAvx512,
    MaskedScaleAvx512,
};

}  // namespace

const TierOps* Avx512Ops() { return &kAvx512OpsTable; }

}  // namespace ahg::kernels

#else  // no AVX-512 build support

namespace ahg::kernels {
const TierOps* Avx512Ops() { return nullptr; }
}  // namespace ahg::kernels

#endif
