#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "gtest/gtest.h"

namespace ahg {
namespace {

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

// Golden values: any change to the generator (or to how Next/Uniform are
// compiled) that shifts a stream breaks every seeded result in the repo.
TEST(RngTest, PinnedStreamForOneSeed) {
  Rng rng(20200823);
  EXPECT_EQ(rng.Next(), 0xd29b0ae83e06f27aULL);
  EXPECT_EQ(rng.Next(), 0xb862bdcbc0345691ULL);
  EXPECT_EQ(rng.Next(), 0x55963065106b7994ULL);
  EXPECT_EQ(rng.Next(), 0x5249030d287651c5ULL);
  EXPECT_EQ(rng.Uniform(), 0x1.1b48ef1d038f9p-1);
  EXPECT_EQ(rng.Uniform(), 0x1.0a5abed00236p-1);
  EXPECT_EQ(rng.Uniform(), 0x1.a5f015e0777f6p-1);
  EXPECT_EQ(rng.Uniform(), 0x1.754dcd580b56p-1);
  EXPECT_FALSE(rng.Bernoulli(0.5));
  EXPECT_TRUE(rng.Bernoulli(0.5));
  EXPECT_TRUE(rng.Bernoulli(0.5));
  EXPECT_FALSE(rng.Bernoulli(0.5));
  EXPECT_EQ(rng.Next(), 0xd6110a7b242f6a04ULL);
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntInRangeAndCoversAll) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(5);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NormalMomentsRoughlyStandard) {
  Rng rng(11);
  const int n = 20000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(19);
  std::vector<int> sample = rng.SampleWithoutReplacement(100, 30);
  ASSERT_EQ(sample.size(), 30u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (int s : sample) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 100);
  }
}

TEST(RngTest, SampleFullRangeIsPermutation) {
  Rng rng(23);
  std::vector<int> sample = rng.SampleWithoutReplacement(10, 10);
  std::sort(sample.begin(), sample.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(31);
  Rng forked = a.Fork();
  // The fork differs from the parent's continued stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == forked.Next();
  EXPECT_LT(same, 4);
}

bool SameState(const RngState& a, const RngState& b) {
  return std::equal(a.s, a.s + 4, b.s) &&
         a.has_spare_normal == b.has_spare_normal &&
         std::memcmp(&a.spare_normal, &b.spare_normal, sizeof(double)) == 0;
}

// Advance(k) lands where k Next() calls do, and leaves the spare normal of
// Normal() as it was.
TEST(RngTest, AdvanceEqualsRepeatedNext) {
  for (uint64_t k : {uint64_t{0}, uint64_t{1}, uint64_t{63}, uint64_t{64},
                     uint64_t{65}, uint64_t{1000}, uint64_t{72000},
                     (uint64_t{1} << 20) + 3}) {
    Rng stepped(41);
    stepped.Normal();  // leaves a spare normal behind
    Rng jumped = stepped;
    for (uint64_t i = 0; i < k; ++i) stepped.Next();
    jumped.Advance(k);
    EXPECT_TRUE(SameState(stepped.ExportState(), jumped.ExportState()))
        << "k=" << k;
    EXPECT_TRUE(jumped.ExportState().has_spare_normal) << "k=" << k;
    EXPECT_EQ(stepped.Next(), jumped.Next()) << "k=" << k;
  }
}

// The characteristic polynomial derived by Berlekamp-Massey reproduces the
// reference implementation's jump constants: x^(2^128) mod P is JUMP, and
// x^(2^192) mod P is LONG_JUMP.
TEST(RngTest, JumpPolynomialsMatchPublishedConstants) {
  const RngJump jump = Rng::JumpOfPow2(128);
  const uint64_t kJump[4] = {0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
                             0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
  EXPECT_TRUE(std::equal(jump.words, jump.words + 4, kJump));
  const RngJump long_jump = Rng::JumpOfPow2(192);
  const uint64_t kLongJump[4] = {0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL,
                                 0x77710069854ee241ULL, 0x39109bb02acbe635ULL};
  EXPECT_TRUE(std::equal(long_jump.words, long_jump.words + 4, kLongJump));
  // A jump by a power of two that fits in k agrees with JumpOf.
  const RngJump small = Rng::JumpOfPow2(20);
  const RngJump direct = Rng::JumpOf(uint64_t{1} << 20);
  EXPECT_TRUE(std::equal(small.words, small.words + 4, direct.words));
}

// Bernoulli(p) is the threshold compare, at the edges of [0, 1) too.
TEST(RngTest, BernoulliThresholdDecidesBernoulli) {
  for (double p : {0.0, 1e-300, 0.1, 0.25, 0.5, 0.9,
                   std::nextafter(1.0, 0.0), 1.0}) {
    Rng a(43), b(43);
    const uint64_t threshold = Rng::BernoulliThreshold(p);
    for (int i = 0; i < 2000; ++i) {
      EXPECT_EQ(a.Bernoulli(p), (b.Next() >> 11) < threshold) << "p=" << p;
    }
  }
}

}  // namespace
}  // namespace ahg
