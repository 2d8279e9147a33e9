// Deterministic random number generation.
//
// Every stochastic component in the library (weight init, dropout, dataset
// generation, splits, sampling) draws from an explicitly seeded Rng so that
// experiments are reproducible bit-for-bit on a given platform.
#ifndef AUTOHENS_UTIL_RNG_H_
#define AUTOHENS_UTIL_RNG_H_

#include <cstdint>
#include <vector>

namespace ahg {

// Full generator state, exposed so checkpoint/resume paths (src/jobs) can
// persist an Rng mid-stream and continue the identical draw sequence.
struct RngState {
  uint64_t s[4] = {0, 0, 0, 0};
  bool has_spare_normal = false;
  double spare_normal = 0.0;
};

// A jump of the xoshiro256** state by a fixed number of draws k: the
// coefficients of x^k mod P(x), where P is the degree-256 characteristic
// polynomial of the generator's GF(2)-linear state transition (Blackman &
// Vigna, "Scrambled linear pseudorandom number generators", 2021).
// Coefficient i is bit i % 64 of words[i / 64], the layout of the
// reference implementation's JUMP constants.
struct RngJump {
  uint64_t words[4];
};

// xoshiro256** generator seeded via splitmix64. Not thread-safe; use one
// instance per thread (Fork() derives an independent stream).
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Next raw 64-bit value. Inline (with Uniform and Bernoulli) so a
  // per-element draw loop such as Dropout's mask keeps the state in
  // registers instead of calling out per element.
  uint64_t Next() {
    const uint64_t result = RotL(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = RotL(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1): the 53 high bits of Next().
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [0, n). Requires n > 0.
  int64_t UniformInt(int64_t n);

  // Standard normal via Box-Muller.
  double Normal();
  double Normal(double mean, double stddev);

  // True with probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  // Derives an independent generator; deterministic given this Rng's state.
  Rng Fork();

  // Moves the stream k draws ahead, bit for bit as k Next() calls would,
  // in O(log k) polynomial steps plus one 256-step pass over the state.
  // The spare normal of Normal() is left as it is.
  void Advance(uint64_t k);

  // The jump by k draws, and by 2^e draws (0 <= e < 256).
  static RngJump JumpOf(uint64_t k);
  static RngJump JumpOfPow2(int e);

  // Applies `jump` to a raw generator state (the layout of RngState::s).
  static void Jump(const RngJump& jump, uint64_t state[4]);

  // Bernoulli(p) is true exactly when (Next() >> 11) < BernoulliThreshold(p):
  // ceil(p * 2^53), clamped to [0, 2^53] (0 for p <= 0 or NaN).
  static uint64_t BernoulliThreshold(double p);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (int64_t i = static_cast<int64_t>(values->size()) - 1; i > 0; --i) {
      int64_t j = UniformInt(i + 1);
      std::swap((*values)[i], (*values)[j]);
    }
  }

  // Returns k distinct indices sampled uniformly from [0, n).
  std::vector<int> SampleWithoutReplacement(int n, int k);

  // Snapshot / restore of the exact generator state: a restored Rng
  // produces the same draw sequence bit-for-bit as the original would have.
  RngState ExportState() const;
  void RestoreState(const RngState& state);

 private:
  static uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace ahg

#endif  // AUTOHENS_UTIL_RNG_H_
