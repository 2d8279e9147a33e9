#include "util/rng.h"

#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace ahg {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
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
