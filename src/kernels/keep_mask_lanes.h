// The laned keep-mask and the masked scale shared by the SIMD tiers
// (contract in kernel_ops.h).
//
// Like kernels/gemm_tiles.h, ops_avx2.cc and ops_avx512.cc include this
// header into their own translation units and instantiate the templates
// with a traits type from their anonymous namespace, so every
// instantiation stays local to its tier.
//
// V provides kLanes; DrawLanes(lanes, threshold, lane_words, bits), which
// runs xoshiro256** in kLanes lanes from the states lanes[w][j] (state word
// w of lane j), writes lane j's lane_words mask words to bits[j *
// lane_words, (j + 1) * lane_words) and leaves each lane's end state in
// lanes; and MaskedScale8(in, bits8, count, scale, out), which applies the
// low `count` (<= 8) bits of bits8 to in[0, count).
#ifndef AUTOHENS_KERNELS_KEEP_MASK_LANES_H_
#define AUTOHENS_KERNELS_KEEP_MASK_LANES_H_

#include <algorithm>
#include <cstdint>

#include "kernels/kernel_ops.h"
#include "util/rng.h"

namespace ahg::kernels::lanes {

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

}  // namespace ahg::kernels::lanes

#endif  // AUTOHENS_KERNELS_KEEP_MASK_LANES_H_
