#include "util/rng.h"

#include <cmath>
#include <numeric>
#include <vector>

#include "util/logging.h"

namespace ahg {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Polynomials over GF(2) of degree < 256 are held as RngJumps: the
// coefficient of x^i is bit i % 64 of words[i / 64].

// P(x) minus its leading x^256: the transition is GF(2)-linear, so any bit
// of the state obeys the recurrence of its minimal polynomial, which
// Berlekamp-Massey recovers from 512 terms. The transition's polynomial is
// primitive (the period is 2^256 - 1), so every nonzero state's sequence
// has the whole of P as its minimal polynomial.
RngJump DeriveLowTerms() {
  constexpr int kTerms = 512;
  std::vector<uint8_t> seq(kTerms);
  Rng rng(0);
  RngState state;
  state.s[0] = 1;
  rng.RestoreState(state);
  for (int i = 0; i < kTerms; ++i) {
    seq[i] = static_cast<uint8_t>(rng.ExportState().s[0] & 1);
    rng.Next();
  }
  // Connection polynomial c (c[0] = 1): seq[n] = sum_{i=1..len} c[i] *
  // seq[n - i].
  std::vector<uint8_t> c(kTerms + 1, 0), prev(kTerms + 1, 0);
  c[0] = prev[0] = 1;
  int len = 0, shift = 1;
  for (int n = 0; n < kTerms; ++n) {
    uint8_t d = seq[n];
    for (int i = 1; i <= len; ++i) d ^= c[i] & seq[n - i];
    if (d == 0) {
      ++shift;
      continue;
    }
    const std::vector<uint8_t> saved = c;
    for (int i = 0; i + shift <= kTerms; ++i) c[i + shift] ^= prev[i];
    if (2 * len <= n) {
      len = n + 1 - len;
      prev = saved;
      shift = 1;
    } else {
      ++shift;
    }
  }
  AHG_CHECK_EQ(len, 256);
  // P(x) = x^256 c(1/x): coefficient 256 - i of P is c[i].
  RngJump low = {{0, 0, 0, 0}};
  for (int i = 1; i <= 256; ++i) {
    if (c[i]) low.words[(256 - i) / 64] |= uint64_t{1} << ((256 - i) % 64);
  }
  return low;
}

const RngJump& LowTerms() {
  static const RngJump low = DeriveLowTerms();
  return low;
}

// r * x mod P.
void TimesX(RngJump* r) {
  uint64_t* w = r->words;
  const uint64_t carry = w[3] >> 63;
  w[3] = (w[3] << 1) | (w[2] >> 63);
  w[2] = (w[2] << 1) | (w[1] >> 63);
  w[1] = (w[1] << 1) | (w[0] >> 63);
  w[0] <<= 1;
  const uint64_t mask = 0 - carry;
  for (int i = 0; i < 4; ++i) w[i] ^= LowTerms().words[i] & mask;
}

// x^(256 + i) mod P for i in [0, 256): reduces a product's high half one
// set bit at a time.
struct ReductionTable {
  RngJump rows[256];
};

const ReductionTable& Reduction() {
  static const ReductionTable table = [] {
    ReductionTable t;
    t.rows[0] = LowTerms();
    for (int i = 1; i < 256; ++i) {
      t.rows[i] = t.rows[i - 1];
      TimesX(&t.rows[i]);
    }
    return t;
  }();
  return table;
}

// The 32 bits of x spread to the even bits of the result.
uint64_t Spread(uint64_t x) {
  x &= 0xFFFFFFFFULL;
  x = (x | (x << 16)) & 0x0000FFFF0000FFFFULL;
  x = (x | (x << 8)) & 0x00FF00FF00FF00FFULL;
  x = (x | (x << 4)) & 0x0F0F0F0F0F0F0F0FULL;
  x = (x | (x << 2)) & 0x3333333333333333ULL;
  x = (x | (x << 1)) & 0x5555555555555555ULL;
  return x;
}

// a^2 mod P: over GF(2), squaring spreads the coefficients to even
// degrees; the half above degree 255 is then reduced through the table.
RngJump SquareMod(const RngJump& a) {
  uint64_t wide[8];
  for (int w = 0; w < 4; ++w) {
    wide[2 * w] = Spread(a.words[w]);
    wide[2 * w + 1] = Spread(a.words[w] >> 32);
  }
  RngJump r = {{wide[0], wide[1], wide[2], wide[3]}};
  const ReductionTable& table = Reduction();
  for (int w = 0; w < 4; ++w) {
    for (uint64_t bits = wide[4 + w]; bits != 0; bits &= bits - 1) {
      const RngJump& row = table.rows[64 * w + __builtin_ctzll(bits)];
      for (int v = 0; v < 4; ++v) r.words[v] ^= row.words[v];
    }
  }
  return r;
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * Uniform();
}

int64_t Rng::UniformInt(int64_t n) {
  AHG_CHECK_GT(n, 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t un = static_cast<uint64_t>(n);
  const uint64_t limit = UINT64_MAX - UINT64_MAX % un;
  uint64_t v = Next();
  while (v >= limit) v = Next();
  return static_cast<int64_t>(v % un);
}

double Rng::Normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u1 = Uniform();
  double u2 = Uniform();
  while (u1 <= 1e-300) u1 = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  spare_normal_ = r * std::sin(theta);
  has_spare_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

Rng Rng::Fork() { return Rng(Next() ^ 0xa5a5a5a5a5a5a5a5ULL); }

void Rng::Advance(uint64_t k) { Jump(JumpOf(k), state_); }

RngJump Rng::JumpOf(uint64_t k) {
  // x^k by squaring from k's top bit down.
  RngJump r = {{1, 0, 0, 0}};
  const int top = k == 0 ? -1 : 63 - __builtin_clzll(k);
  for (int bit = top; bit >= 0; --bit) {
    r = SquareMod(r);
    if ((k >> bit) & 1) TimesX(&r);
  }
  return r;
}

RngJump Rng::JumpOfPow2(int e) {
  AHG_CHECK(e >= 0 && e < 256);
  RngJump r = {{2, 0, 0, 0}};  // x
  for (int i = 0; i < e; ++i) r = SquareMod(r);
  return r;
}

void Rng::Jump(const RngJump& jump, uint64_t state[4]) {
  // x^k = sum_i c_i x^i mod P, and P annihilates the transition T, so
  // T^k s = sum_i c_i T^i s. The loop body is Next's state update, on
  // locals.
  uint64_t s0 = state[0], s1 = state[1], s2 = state[2], s3 = state[3];
  uint64_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
  for (int w = 0; w < 4; ++w) {
    const uint64_t coeffs = jump.words[w];
    for (int b = 0; b < 64; ++b) {
      const uint64_t mask = 0 - ((coeffs >> b) & 1);
      a0 ^= s0 & mask;
      a1 ^= s1 & mask;
      a2 ^= s2 & mask;
      a3 ^= s3 & mask;
      const uint64_t t = s1 << 17;
      s2 ^= s0;
      s3 ^= s1;
      s1 ^= s2;
      s0 ^= s3;
      s2 ^= t;
      s3 = (s3 << 45) | (s3 >> 19);
    }
  }
  state[0] = a0;
  state[1] = a1;
  state[2] = a2;
  state[3] = a3;
}

uint64_t Rng::BernoulliThreshold(double p) {
  // Uniform() < p compares an exact u * 2^-53 with p, that is the integer
  // u with the exact p * 2^53, and u < x iff u < ceil(x) for integers u.
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return uint64_t{1} << 53;
  return static_cast<uint64_t>(std::ceil(std::ldexp(p, 53)));
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  AHG_CHECK_GE(n, k);
  AHG_CHECK_GE(k, 0);
  // Partial Fisher-Yates over an index array.
  std::vector<int> indices(n);
  std::iota(indices.begin(), indices.end(), 0);
  for (int i = 0; i < k; ++i) {
    int64_t j = i + UniformInt(n - i);
    std::swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

RngState Rng::ExportState() const {
  RngState state;
  for (int i = 0; i < 4; ++i) state.s[i] = state_[i];
  state.has_spare_normal = has_spare_normal_;
  state.spare_normal = spare_normal_;
  return state;
}

void Rng::RestoreState(const RngState& state) {
  for (int i = 0; i < 4; ++i) state_[i] = state.s[i];
  has_spare_normal_ = state.has_spare_normal;
  spare_normal_ = state.spare_normal;
}

}  // namespace ahg
