// Tests for src/algo: LNDS/LIS, Fenwick trees, inversion counting.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "algo/fenwick.h"
#include "algo/inversions.h"
#include "algo/lnds.h"
#include "gen/random.h"
#include "test_util.h"

namespace aod {
namespace {

// -------------------------------------------------------------- Fenwick --

TEST(FenwickTest, PointUpdatesAndPrefixSums) {
  FenwickTree t(10);
  t.Add(0, 3);
  t.Add(4, 2);
  t.Add(9, 5);
  EXPECT_EQ(t.PrefixSum(0), 3);
  EXPECT_EQ(t.PrefixSum(3), 3);
  EXPECT_EQ(t.PrefixSum(4), 5);
  EXPECT_EQ(t.PrefixSum(9), 10);
  EXPECT_EQ(t.RangeSum(1, 4), 2);
  EXPECT_EQ(t.RangeSum(5, 8), 0);
  EXPECT_EQ(t.RangeSum(7, 3), 0);  // empty range
  EXPECT_EQ(t.Total(), 10);
}

TEST(FenwickTest, NegativePrefixIndexIsZero) {
  FenwickTree t(4);
  t.Add(0, 1);
  EXPECT_EQ(t.PrefixSum(-1), 0);
}

TEST(FenwickTest, ResetClears) {
  FenwickTree t(4);
  t.Add(2, 7);
  t.Reset();
  EXPECT_EQ(t.Total(), 0);
}

TEST(FenwickTest, MatchesNaivePrefixSums) {
  Rng rng(99);
  const int n = 64;
  FenwickTree t(n);
  std::vector<int64_t> ref(n, 0);
  for (int step = 0; step < 500; ++step) {
    int i = static_cast<int>(rng.UniformInt(0, n - 1));
    int64_t d = rng.UniformInt(-5, 5);
    t.Add(i, d);
    ref[static_cast<size_t>(i)] += d;
    int q = static_cast<int>(rng.UniformInt(0, n - 1));
    int64_t expect = std::accumulate(ref.begin(), ref.begin() + q + 1,
                                     int64_t{0});
    ASSERT_EQ(t.PrefixSum(q), expect);
  }
}

// ----------------------------------------------------------------- LNDS --

TEST(LndsTest, PaperExample32) {
  // Example 3.2: tax projection after sorting Table 1 by [sal, tax]:
  // [2, 2.5, 0.3, 12, 1.5, 16.5, 1.8, 7.2, 16] (in K). Using x10 ints.
  std::vector<int32_t> tax = {20, 25, 3, 120, 15, 165, 18, 72, 160};
  std::vector<int32_t> tails;
  EXPECT_EQ(LndsLength(tax, tails), 5);  // [0.3, 1.5, 1.8, 7.2, 16]
  std::vector<int32_t> kept = LndsIndices(tax);
  ASSERT_EQ(kept.size(), 5u);
  // The removed positions are {0, 1, 3, 5} = tuples t1, t2, t4, t6.
  EXPECT_EQ(LndsComplement(tax), (std::vector<int32_t>{0, 1, 3, 5}));
}

TEST(LndsTest, EmptyAndSingleton) {
  std::vector<int32_t> tails;
  EXPECT_EQ(LndsLength({}, tails), 0);
  EXPECT_TRUE(LndsIndices({}).empty());
  EXPECT_EQ(LndsLength(std::vector<int32_t>{7}, tails), 1);
  EXPECT_EQ(LndsIndices({7}), (std::vector<int32_t>{0}));
}

TEST(LndsTest, AllEqualIsNonDecreasing) {
  std::vector<int32_t> xs(10, 5);
  std::vector<int32_t> tails;
  EXPECT_EQ(LndsLength(xs, tails), 10);
  EXPECT_TRUE(LndsComplement(xs).empty());
}

TEST(LndsTest, StrictlyDecreasingKeepsOne) {
  std::vector<int32_t> tails;
  EXPECT_EQ(LndsLength(std::vector<int32_t>{5, 4, 3, 2, 1}, tails), 1);
  EXPECT_EQ(LndsComplement({5, 4, 3, 2, 1}).size(), 4u);
}

TEST(LndsTest, NonDecreasingVsStrictlyIncreasing) {
  std::vector<int32_t> xs = {1, 2, 2, 3, 3, 3};
  std::vector<int32_t> tails;
  EXPECT_EQ(LndsLength(xs, tails), 6);
  EXPECT_EQ(LisLength(xs, tails), 3);
}

TEST(LisTest, ClassicCases) {
  std::vector<int32_t> tails;
  EXPECT_EQ(LisLength(std::vector<int32_t>{10, 9, 2, 5, 3, 7, 101, 18}, tails),
            4);
  std::vector<int32_t> kept = LisIndices({10, 9, 2, 5, 3, 7, 101, 18});
  EXPECT_EQ(kept.size(), 4u);
  // Verify the reconstruction is strictly increasing in value & position.
  std::vector<int32_t> xs = {10, 9, 2, 5, 3, 7, 101, 18};
  for (size_t i = 1; i < kept.size(); ++i) {
    EXPECT_LT(kept[i - 1], kept[i]);
    EXPECT_LT(xs[static_cast<size_t>(kept[i - 1])],
              xs[static_cast<size_t>(kept[i])]);
  }
}

TEST(LndsByTest, GenericMatchesSpecialized) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    int n = static_cast<int>(rng.UniformInt(0, 60));
    std::vector<int32_t> xs;
    for (int i = 0; i < n; ++i) {
      xs.push_back(static_cast<int32_t>(rng.UniformInt(0, 12)));
    }
    auto generic = LndsIndicesBy(
        static_cast<int32_t>(xs.size()), [&](int32_t a, int32_t b) {
          return xs[static_cast<size_t>(a)] <= xs[static_cast<size_t>(b)];
        });
    std::vector<int32_t> tails;
    ASSERT_EQ(static_cast<int64_t>(generic.size()), LndsLength(xs, tails));
    for (size_t i = 1; i < generic.size(); ++i) {
      ASSERT_LT(generic[i - 1], generic[i]);
      ASSERT_LE(xs[static_cast<size_t>(generic[i - 1])],
                xs[static_cast<size_t>(generic[i])]);
    }
  }
}

// Property suite: LNDS against the O(m^2) DP oracle; reconstruction is a
// valid non-decreasing subsequence of maximal length.
class LndsPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int, int>> {};

TEST_P(LndsPropertyTest, MatchesQuadraticOracle) {
  auto [seed, n, cardinality] = GetParam();
  Rng rng(seed);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<int32_t> xs;
    for (int i = 0; i < n; ++i) {
      xs.push_back(static_cast<int32_t>(rng.UniformInt(0, cardinality - 1)));
    }
    int64_t expect = testing_util::LndsLengthNaive(xs);
    std::vector<int32_t> tails;
    ASSERT_EQ(LndsLength(xs, tails), expect);

    std::vector<int32_t> kept = LndsIndices(xs);
    ASSERT_EQ(static_cast<int64_t>(kept.size()), expect);
    for (size_t i = 1; i < kept.size(); ++i) {
      ASSERT_LT(kept[i - 1], kept[i]) << "positions must ascend";
      ASSERT_LE(xs[static_cast<size_t>(kept[i - 1])],
                xs[static_cast<size_t>(kept[i])])
          << "values must be non-decreasing";
    }
    std::vector<int32_t> removed = LndsComplement(xs);
    ASSERT_EQ(removed.size() + kept.size(), xs.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LndsPropertyTest,
    ::testing::Combine(::testing::Values<uint64_t>(11, 22, 33),
                       ::testing::Values(1, 5, 40, 120),
                       ::testing::Values(2, 8, 1000)));

// ------------------------------------------------------------ Inversions --

TEST(InversionsTest, SimpleCases) {
  EXPECT_EQ(CountInversions({}), 0);
  EXPECT_EQ(CountInversions({1}), 0);
  EXPECT_EQ(CountInversions({1, 2, 3}), 0);
  EXPECT_EQ(CountInversions({3, 2, 1}), 3);
  EXPECT_EQ(CountInversions({2, 2, 2}), 0);  // ties are not inversions
  EXPECT_EQ(CountInversions({2, 1, 2, 1}), 3);
}

TEST(InversionsTest, PerElementSimple) {
  // xs = [3, 1, 2]: inversions (0,1), (0,2).
  EXPECT_EQ(PerElementInversions({3, 1, 2}),
            (std::vector<int64_t>{2, 1, 1}));
  EXPECT_EQ(PerElementInversions({}), (std::vector<int64_t>{}));
  EXPECT_EQ(PerElementInversions({5, 5}), (std::vector<int64_t>{0, 0}));
}

class InversionsPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int, int>> {};

TEST_P(InversionsPropertyTest, MatchesNaive) {
  auto [seed, n, cardinality] = GetParam();
  Rng rng(seed);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int32_t> xs;
    for (int i = 0; i < n; ++i) {
      xs.push_back(static_cast<int32_t>(rng.UniformInt(0, cardinality - 1)));
    }
    ASSERT_EQ(CountInversions(xs), CountInversionsNaive(xs));
    std::vector<int64_t> per = PerElementInversions(xs);
    std::vector<int64_t> ref = PerElementInversionsNaive(xs);
    ASSERT_EQ(per, ref);
    // Each inversion involves exactly two elements.
    int64_t total = std::accumulate(per.begin(), per.end(), int64_t{0});
    ASSERT_EQ(total, 2 * CountInversions(xs));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InversionsPropertyTest,
    ::testing::Combine(::testing::Values<uint64_t>(7, 8),
                       ::testing::Values(2, 17, 90),
                       ::testing::Values(2, 6, 500)));

}  // namespace
}  // namespace aod
