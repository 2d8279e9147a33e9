// The SIMD tiers' kernels besides the GEMM tiles, and the table builder
// that puts every kernel of a tier into its TierOps (contract in
// kernel_ops.h).
//
// Like kernels/gemm_tiles.h, ops_avx2.cc and ops_avx512.cc include this
// header into their own translation units and instantiate the templates
// with a traits type from their anonymous namespace, so every
// instantiation stays local to its tier. A tier TU is its traits type and
// one TierTable<V>(tier).
//
// Besides what gemm_tiles.h asks of V, V provides Zero(), Sub(x, y),
// Div(x, y), Max(x, y) (the instruction's max: y in a lane where either
// operand is NaN or both are zeros) and ReduceMax(v) (the max over v's
// lanes); DrawLanes(lanes, threshold, lane_words, bits), which runs
// xoshiro256** in kLanes lanes from the states lanes[w][j] (state word w
// of lane j), writes lane j's lane_words mask words to bits[j *
// lane_words, (j + 1) * lane_words) and leaves each lane's end state in
// lanes; and MaskedScale8(in, bits8, count, scale, out), which applies the
// low `count` (<= 8) bits of bits8 to in[0, count).
//
// Each lane is one output element and applies the scalar reference's
// operations in the scalar reference's order, so how many lanes advance
// together never changes an element's bits. Every kernel here runs whole
// vectors and then the scalar reference's loop over the last n % kLanes
// elements, as the hand-written tiers did. A masked tail would fill its
// dead lanes with 0.0, which is not the identity of a max; and where two
// NaNs meet in an add, the sign that survives follows the compiler's
// operand order (kernel_ops.h): an SpMM whose tail columns were masked
// vector lanes gave the other NaN sign than the reference in the ASan
// build, where the scalar tail gives the reference's.
#ifndef AUTOHENS_KERNELS_SIMD_OPS_H_
#define AUTOHENS_KERNELS_SIMD_OPS_H_

#include <algorithm>
#include <cstdint>

#include "kernels/gemm_tiles.h"
#include "kernels/kernel_ops.h"
#include "util/rng.h"

namespace ahg::kernels::simd {

// NV column vectors of one CSR row's output, held in registers across the
// row's entries.
template <class V, int NV>
inline void SpmmRowBlock(const double* values, const int* cols, int64_t nnz,
                         const double* x, int64_t ldx, double* yrow) {
  using Vec = typename V::Vec;
  constexpr int kL = V::kLanes;
  Vec acc[NV];
  #pragma GCC unroll 4
  for (int v = 0; v < NV; ++v) acc[v] = V::Zero();
  for (int64_t e = 0; e < nnz; ++e) {
    const Vec ve = V::Set1(values[e]);
    const double* xrow = x + static_cast<int64_t>(cols[e]) * ldx;
    #pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      acc[v] = V::Add(acc[v], V::Mul(ve, V::Load(xrow + v * kL)));
    }
  }
  #pragma GCC unroll 4
  for (int v = 0; v < NV; ++v) V::Store(yrow + v * kL, acc[v]);
}

// Blocks of 4, 2 and 1 vectors, then the scalar reference's loop over the
// last n % kLanes columns.
template <class V>
void SpmmRow(const double* values, const int* cols, int64_t nnz,
             const double* x, int64_t ldx, int n, double* yrow) {
  constexpr int kL = V::kLanes;
  int c = 0;
  for (; c + 4 * kL <= n; c += 4 * kL) {
    SpmmRowBlock<V, 4>(values, cols, nnz, x + c, ldx, yrow + c);
  }
  for (; c + 2 * kL <= n; c += 2 * kL) {
    SpmmRowBlock<V, 2>(values, cols, nnz, x + c, ldx, yrow + c);
  }
  for (; c + kL <= n; c += kL) {
    SpmmRowBlock<V, 1>(values, cols, nnz, x + c, ldx, yrow + c);
  }
  for (; c < n; ++c) {
    double acc = 0.0;
    for (int64_t e = 0; e < nnz; ++e) {
      acc += values[e] * x[static_cast<int64_t>(cols[e]) * ldx + c];
    }
    yrow[c] = acc;
  }
}

// Vectorized only when n >= kLanes; the scalar tail continues the max.
template <class V>
double RowMax(const double* x, int n) {
  constexpr int kL = V::kLanes;
  double m = x[0];
  int c = 1;
  if (n >= kL) {
    typename V::Vec vm = V::Load(x);
    for (c = kL; c + kL <= n; c += kL) vm = V::Max(vm, V::Load(x + c));
    m = V::ReduceMax(vm);
  }
  for (; c < n; ++c) m = std::max(m, x[c]);
  return m;
}

template <class V>
void DivInplace(double* x, int n, double denom) {
  const typename V::Vec vd = V::Set1(denom);
  int c = 0;
  for (; c + V::kLanes <= n; c += V::kLanes) {
    V::Store(x + c, V::Div(V::Load(x + c), vd));
  }
  for (; c < n; ++c) x[c] /= denom;
}

template <class V>
void SubScalar(const double* x, int n, double s, double* out) {
  const typename V::Vec vs = V::Set1(s);
  int c = 0;
  for (; c + V::kLanes <= n; c += V::kLanes) {
    V::Store(out + c, V::Sub(V::Load(x + c), vs));
  }
  for (; c < n; ++c) out[c] = x[c] - s;
}

// Max(v, +0.0) is +0.0 for v = -0.0, +0.0 or NaN: the scalar
// `v > 0 ? v : 0.0`.
template <class V>
void BiasReluRow(double* x, const double* bias, int n) {
  const typename V::Vec zero = V::Zero();
  int c = 0;
  if (bias != nullptr) {
    for (; c + V::kLanes <= n; c += V::kLanes) {
      V::Store(x + c,
               V::Max(V::Add(V::Load(x + c), V::Load(bias + c)), zero));
    }
    for (; c < n; ++c) {
      const double v = x[c] + bias[c];
      x[c] = v > 0.0 ? v : 0.0;
    }
  } else {
    for (; c + V::kLanes <= n; c += V::kLanes) {
      V::Store(x + c, V::Max(V::Load(x + c), zero));
    }
    for (; c < n; ++c) {
      const double v = x[c];
      x[c] = v > 0.0 ? v : 0.0;
    }
  }
}

template <class V>
void AddInplace(double* x, const double* y, int64_t n) {
  int64_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    V::Store(x + i, V::Add(V::Load(x + i), V::Load(y + i)));
  }
  for (; i < n; ++i) x[i] += y[i];
}

template <class V>
void AxpyInplace(double* x, double alpha, const double* y, int64_t n) {
  const typename V::Vec va = V::Set1(alpha);
  int64_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    V::Store(x + i, V::Add(V::Load(x + i), V::Mul(va, V::Load(y + i))));
  }
  for (; i < n; ++i) x[i] += alpha * y[i];
}

template <class V>
void ScaleInplace(double* x, double alpha, int64_t n) {
  const typename V::Vec va = V::Set1(alpha);
  int64_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    V::Store(x + i, V::Mul(V::Load(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

template <class V>
void CWiseMul(const double* a, const double* b, int64_t n, double* out) {
  int64_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    V::Store(out + i, V::Mul(V::Load(a + i), V::Load(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

template <class V>
void KeepMask(uint64_t* s, uint64_t threshold, int64_t n, uint64_t* bits) {
  constexpr int kL = V::kLanes;
  const int64_t lane_words = n / 64 / kL;
  if (n < kMinLanedDraws || lane_words == 0) {
    ScalarOps().keep_mask(s, threshold, n, bits);
    return;
  }
  // Lane j starts at element j * lane_words * 64: one jump polynomial,
  // applied lane after lane.
  alignas(64) uint64_t lanes[4][kL];
  uint64_t start[4] = {s[0], s[1], s[2], s[3]};
  const RngJump jump = Rng::JumpOf(static_cast<uint64_t>(lane_words) * 64);
  for (int j = 0; j < kL; ++j) {
    if (j > 0) Rng::Jump(jump, start);
    for (int w = 0; w < 4; ++w) lanes[w][j] = start[w];
  }
  V::DrawLanes(lanes, threshold, lane_words, bits);
  // The last lane stops where the element-order stream reaches the rest.
  for (int w = 0; w < 4; ++w) s[w] = lanes[w][kL - 1];
  const int64_t done_words = kL * lane_words;
  ScalarOps().keep_mask(s, threshold, n - 64 * done_words, bits + done_words);
}

// Up to 64 bits of keep from bit `first` on, reading a second word only
// when the bits cross into it. A template only to stay local to its tier.
template <class V>
inline uint64_t Bits64(const uint64_t* keep, int64_t first, int count) {
  const int64_t w = first >> 6;
  const int shift = static_cast<int>(first & 63);
  uint64_t v = keep[w] >> shift;
  if (shift != 0 && shift + count > 64) v |= keep[w + 1] << (64 - shift);
  return v;
}

template <class V>
void MaskedScale(const double* in, const uint64_t* keep, int64_t first,
                 int64_t n, double scale, double* out) {
  for (int64_t i = 0; i < n; i += 64) {
    const int count = static_cast<int>(std::min<int64_t>(64, n - i));
    const uint64_t bits = Bits64<V>(keep, first + i, count);
    for (int j = 0; j < count; j += 8) {
      V::MaskedScale8(in + i + j, static_cast<unsigned>((bits >> j) & 0xFF),
                      std::min(8, count - j), scale, out + i + j);
    }
  }
}

// Every entry of `tier`'s table, instantiated on V.
template <class V>
constexpr TierOps TierTable(Tier tier) {
  return {
      .tier = tier,
      .gemm = tiles::Gemm<V>,
      .gemm_ta = tiles::GemmTransA<V>,
      .spmm_row = SpmmRow<V>,
      .row_max = RowMax<V>,
      .div_inplace = DivInplace<V>,
      .sub_scalar = SubScalar<V>,
      .bias_relu_row = BiasReluRow<V>,
      .add_inplace = AddInplace<V>,
      .axpy_inplace = AxpyInplace<V>,
      .scale_inplace = ScaleInplace<V>,
      .cwise_mul = CWiseMul<V>,
      .keep_mask = KeepMask<V>,
      .masked_scale = MaskedScale<V>,
  };
}

}  // namespace ahg::kernels::simd

#endif  // AUTOHENS_KERNELS_SIMD_OPS_H_
