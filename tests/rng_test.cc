#include "util/rng.h"

#include <algorithm>
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

}  // namespace
}  // namespace ahg
