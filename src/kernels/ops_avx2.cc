// AVX2 tier: the shared kernels of kernels/simd_ops.h and
// kernels/gemm_tiles.h on 4-lane double vectors. Multiply and add stay
// separate (no FMA: this TU is compiled with -mavx2 -mpopcnt
// -ffp-contract=off and without -mfma), so every lane is bitwise identical
// to ops_scalar.cc.
#include "kernels/kernel_ops.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstdint>

#include "kernels/simd_ops.h"

namespace ahg::kernels {
namespace {

// Vector traits for the shared kernels: 4 lanes, zero-skip by adding -0.0
// in the skipped lanes, column tails by maskload/maskstore. The GEMM tiles
// are smaller than AVX-512's: 16 vector registers, and each mask is one
// more.
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

  static Vec Zero() { return _mm256_setzero_pd(); }
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
  static Vec Sub(Vec x, Vec y) { return _mm256_sub_pd(x, y); }
  static Vec Div(Vec x, Vec y) { return _mm256_div_pd(x, y); }
  static Vec Max(Vec x, Vec y) { return _mm256_max_pd(x, y); }
  static double ReduceMax(Vec v) {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d m2 = _mm_max_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_max_sd(m2, _mm_unpackhi_pd(m2, m2)));
  }
  static Mask NonzeroOf(Vec v) {
    return _mm256_cmp_pd(v, Zero(), _CMP_NEQ_UQ);
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

  // xoshiro256** in 4 lanes (kernels/simd_ops.h). The multiplies
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

constexpr TierOps kAvx2Ops = simd::TierTable<Avx2>(Tier::kAvx2);

}  // namespace

const TierOps* Avx2Ops() { return &kAvx2Ops; }

}  // namespace ahg::kernels

#else  // !defined(__AVX2__)

namespace ahg::kernels {
const TierOps* Avx2Ops() { return nullptr; }
}  // namespace ahg::kernels

#endif
