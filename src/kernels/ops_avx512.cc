// AVX-512 tier: the shared kernels of kernels/simd_ops.h and
// kernels/gemm_tiles.h on 8-lane double vectors (zmm), with zero-skip by a
// masked add and lane-masked column tails. Multiply and add stay separate
// (no FMA: compiled with -ffp-contract=off, no fmadd intrinsics), so every
// lane is bitwise identical to ops_scalar.cc. Requires AVX-512 F+VL+DQ and
// POPCNT at runtime (checked by dispatch); the index compaction is a
// VL-encoded ymm op.
#include "kernels/kernel_ops.h"

#if defined(__AVX512F__) && defined(__AVX512VL__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include <cstdint>

#include "kernels/simd_ops.h"

namespace ahg::kernels {
namespace {

// Vector traits for the shared kernels: 8 lanes, zero-skip by a masked add,
// column tails by lane-masked loads and stores.
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

  static Vec Zero() { return _mm512_setzero_pd(); }
  static Vec Set1(double x) { return _mm512_set1_pd(x); }
  static Vec Load(const double* p) { return _mm512_loadu_pd(p); }
  static void Store(double* p, Vec v) { _mm512_storeu_pd(p, v); }
  // The first min(len, 8) lanes.
  static Tail TailOf(int len) {
    return len >= 8 ? Tail{0xFF} : static_cast<Tail>((1u << len) - 1);
  }
  static Vec LoadTail(const double* p, Tail t) {
    return _mm512_maskz_loadu_pd(t, p);
  }
  static void StoreTail(double* p, Tail t, Vec v) {
    _mm512_mask_storeu_pd(p, t, v);
  }
  static Vec Mul(Vec x, Vec y) { return _mm512_mul_pd(x, y); }
  static Vec Add(Vec x, Vec y) { return _mm512_add_pd(x, y); }
  static Vec Sub(Vec x, Vec y) { return _mm512_sub_pd(x, y); }
  static Vec Div(Vec x, Vec y) { return _mm512_div_pd(x, y); }
  static Vec Max(Vec x, Vec y) { return _mm512_max_pd(x, y); }
  static double ReduceMax(Vec v) { return _mm512_reduce_max_pd(v); }
  static Mask NonzeroOf(Vec v) {
    return _mm512_cmp_pd_mask(v, Zero(), _CMP_NEQ_UQ);
  }
  static Vec AddIf(Vec acc, Mask nz, Vec prod) {
    return _mm512_mask_add_pd(acc, nz, acc, prod);
  }

  // One mask byte per 8 entries of a[0..len); returns the nonzero count.
  static int NonzeroBits(const double* a, int len, uint8_t* bits) {
    int nnz = 0;
    for (int i = 0, g = 0; i < len; i += 8, ++g) {
      const __mmask8 m =
          NonzeroOf(_mm512_maskz_loadu_pd(TailOf(len - i), a + i));
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

  // xoshiro256** in 8 lanes (kernels/simd_ops.h). The multiplies
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
    const __mmask8 valid = TailOf(count);
    const __m512d factor =
        _mm512_maskz_mov_pd(static_cast<__mmask8>(bits8), _mm512_set1_pd(scale));
    _mm512_mask_storeu_pd(
        out, valid, _mm512_mul_pd(_mm512_maskz_loadu_pd(valid, in), factor));
  }
};

constexpr TierOps kAvx512Ops = simd::TierTable<Avx512>(Tier::kAvx512);

}  // namespace

const TierOps* Avx512Ops() { return &kAvx512Ops; }

}  // namespace ahg::kernels

#else  // no AVX-512 build support

namespace ahg::kernels {
const TierOps* Avx512Ops() { return nullptr; }
}  // namespace ahg::kernels

#endif
