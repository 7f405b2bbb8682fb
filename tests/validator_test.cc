// Tests for the four canonical-OD validators: exact OC, exact/approx OFD,
// AOC-optimal (paper Alg. 2), AOC-iterative (paper Alg. 1).
//
// Includes the paper's worked examples from Table 1 (Ex. 2.4, 2.12, 2.15,
// 3.1, 3.2) and property tests against definition-based oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>

#include "algo/lnds.h"
#include "od/aoc_iterative_validator.h"
#include "od/aoc_lis_validator.h"
#include "od/oc_validator.h"
#include "od/ofd_validator.h"
#include "partition/partition_cache.h"
#include "test_util.h"

namespace aod {
namespace {

using testing_util::NaivePartition;
using testing_util::PaperEncoded;

// Column indices in Table 1.
constexpr int kPos = 0;
constexpr int kExp = 1;
constexpr int kSal = 2;
constexpr int kTaxGrp = 3;
constexpr int kPerc = 4;
constexpr int kTax = 5;
constexpr int kBonus = 6;

class PaperTableTest : public ::testing::Test {
 protected:
  EncodedTable table_ = PaperEncoded();
  StrippedPartition whole_ = StrippedPartition::WholeRelation(9);
};

// ------------------------------------------------------------- Exact OC --

TEST_F(PaperTableTest, Example24SalOrdersTaxGrp) {
  // "the OC taxGrp ~ sal holds" and sal -> taxGrp holds.
  EXPECT_TRUE(ValidateOcExact(table_, whole_, kSal, kTaxGrp));
  EXPECT_TRUE(ValidateOcExact(table_, whole_, kTaxGrp, kSal));  // symmetric
  // sal -> taxGrp as an OD: OC + OFD {sal}: [] -> taxGrp.
  auto sal_partition = NaivePartition(table_, AttributeSet::Of({kSal}));
  EXPECT_TRUE(ValidateOfdExact(table_, sal_partition, kTaxGrp));
  // taxGrp does not *order* sal (the FD fails), but the OC still holds.
  auto grp_partition = NaivePartition(table_, AttributeSet::Of({kTaxGrp}));
  EXPECT_FALSE(ValidateOfdExact(table_, grp_partition, kSal));
}

TEST_F(PaperTableTest, SalTaxOcDoesNotHold) {
  // The motivating dirty pair: sal ~ tax is violated by the perc errors.
  EXPECT_FALSE(ValidateOcExact(table_, whole_, kSal, kTax));
}

TEST_F(PaperTableTest, Example212SalBonusCompatibleWithinPos) {
  // {pos}: sal ~ bonus.
  auto pos_partition = NaivePartition(table_, AttributeSet::Of({kPos}));
  EXPECT_TRUE(ValidateOcExact(table_, pos_partition, kSal, kBonus));
  // {pos, sal}: [] -> bonus.
  auto ps_partition =
      NaivePartition(table_, AttributeSet::Of({kPos, kSal}));
  EXPECT_TRUE(ValidateOfdExact(table_, ps_partition, kBonus));
}

TEST_F(PaperTableTest, Example27PosExpPosSalSwapAndSplit)
{
  // OC pos,exp ~ pos,sal has a swap (t7, t8): within context {} for lists;
  // in canonical terms, {pos}: exp ~ sal must fail (t8 = dev/-1/90K).
  auto pos_partition = NaivePartition(table_, AttributeSet::Of({kPos}));
  EXPECT_FALSE(ValidateOcExact(table_, pos_partition, kExp, kSal));
  // The FD pos,exp -> sal fails on the split (t6, t7).
  auto pe_partition =
      NaivePartition(table_, AttributeSet::Of({kPos, kExp}));
  EXPECT_FALSE(ValidateOfdExact(table_, pe_partition, kSal));
}

TEST_F(PaperTableTest, CountSwapsSalTax) {
  // Example 3.1: t7 swaps with t1, t2, t4, t6 — "more than any tuple".
  // The full inventory is 12 swapped pairs: t1 and t2 each swap with
  // {t3, t5, t7}, t4 with {t5, t7, t8}, t6 with {t7, t8, t9's... } —
  // enumerated: (t1,t3),(t1,t5),(t1,t7),(t2,t3),(t2,t5),(t2,t7),
  // (t4,t5),(t4,t7),(t4,t8),(t6,t7),(t6,t8),(t6,t9).
  EXPECT_EQ(CountOcSwaps(table_, whole_, kSal, kTax), 12);
  EXPECT_EQ(CountOcSwaps(table_, whole_, kSal, kTaxGrp), 0);
}

// ------------------------------------------- AOC optimal (Algorithm 2) --

TEST_F(PaperTableTest, Example32OptimalRemovalSet) {
  // e(sal ~ tax) = 4/9 with removal set {t1, t2, t4, t6}.
  ValidatorOptions opts;
  opts.collect_removal_set = true;
  ValidationOutcome out =
      ValidateAocOptimal(table_, whole_, kSal, kTax, 1.0, 9, opts);
  EXPECT_TRUE(out.valid);
  EXPECT_EQ(out.removal_size, 4);
  EXPECT_NEAR(out.approx_factor, 4.0 / 9.0, 1e-9);
  std::set<int32_t> removed(out.removal_rows.begin(),
                            out.removal_rows.end());
  EXPECT_EQ(removed, (std::set<int32_t>{0, 1, 3, 5}));  // t1, t2, t4, t6
}

TEST_F(PaperTableTest, Example215MinimalityAgainstBruteForce) {
  int64_t truth =
      testing_util::MinRemovalOcBruteForce(table_, AttributeSet(), kSal,
                                           kTax);
  EXPECT_EQ(truth, 4);
  ValidationOutcome out =
      ValidateAocOptimal(table_, whole_, kSal, kTax, 1.0, 9);
  EXPECT_EQ(out.removal_size, truth);
}

TEST_F(PaperTableTest, IntroExamplePosExpPosSal) {
  // Paper Sec. 1.1: for the OC pos,exp ~ pos,sal the minimal removal set
  // is {t8} and the factor 1/9. Canonically: {pos}: exp ~ sal.
  auto pos_partition = NaivePartition(table_, AttributeSet::Of({kPos}));
  ValidatorOptions opts;
  opts.collect_removal_set = true;
  ValidationOutcome out = ValidateAocOptimal(table_, pos_partition, kExp,
                                             kSal, 1.0, 9, opts);
  EXPECT_EQ(out.removal_size, 1);
  EXPECT_NEAR(out.approx_factor, 1.0 / 9.0, 1e-9);
  EXPECT_EQ(out.removal_rows, (std::vector<int32_t>{7}));  // t8
}

TEST_F(PaperTableTest, ThresholdGatesValidity) {
  // e = 4/9 ~ 0.444: valid at eps 0.45, invalid at 0.40.
  EXPECT_TRUE(
      ValidateAocOptimal(table_, whole_, kSal, kTax, 0.45, 9).valid);
  EXPECT_FALSE(
      ValidateAocOptimal(table_, whole_, kSal, kTax, 0.40, 9).valid);
  // Boundary: 4/9 exactly.
  EXPECT_TRUE(
      ValidateAocOptimal(table_, whole_, kSal, kTax, 4.0 / 9.0, 9).valid);
}

TEST_F(PaperTableTest, EarlyExitReportsLowerBound) {
  ValidationOutcome out =
      ValidateAocOptimal(table_, whole_, kSal, kTax, 0.0, 9);
  EXPECT_FALSE(out.valid);
  EXPECT_TRUE(out.early_exit);
  EXPECT_GE(out.removal_size, 1);
  // Without early exit the full minimal removal set is measured.
  ValidatorOptions opts;
  opts.early_exit = false;
  out = ValidateAocOptimal(table_, whole_, kSal, kTax, 0.0, 9, opts);
  EXPECT_FALSE(out.valid);
  EXPECT_FALSE(out.early_exit);
  EXPECT_EQ(out.removal_size, 4);
}

TEST_F(PaperTableTest, ExactOcMeansZeroRemoval) {
  ValidationOutcome out =
      ValidateAocOptimal(table_, whole_, kSal, kTaxGrp, 0.0, 9);
  EXPECT_TRUE(out.valid);
  EXPECT_EQ(out.removal_size, 0);
  EXPECT_EQ(out.approx_factor, 0.0);
}

// ----------------------------------------- AOC iterative (Algorithm 1) --

TEST_F(PaperTableTest, Example31IterativeOverestimates) {
  // The greedy strategy removes t7, t5, t3, t6, t4 -> 5/9, overestimating
  // the true 4/9.
  ValidatorOptions opts;
  opts.collect_removal_set = true;
  opts.early_exit = false;
  ValidationOutcome out =
      ValidateAocIterative(table_, whole_, kSal, kTax, 1.0, 9, opts);
  EXPECT_EQ(out.removal_size, 5);
  EXPECT_NEAR(out.approx_factor, 5.0 / 9.0, 1e-9);
  std::set<int32_t> removed(out.removal_rows.begin(),
                            out.removal_rows.end());
  EXPECT_EQ(removed, (std::set<int32_t>{2, 3, 4, 5, 6}));  // t3..t7
}

TEST_F(PaperTableTest, IterativeMissesAocNearThreshold) {
  // At eps = 0.5: the candidate truly holds (4/9 <= 0.5) but the greedy
  // validator reports 5/9 > 0.5 -> INVALID. This is the incompleteness
  // the paper fixes.
  EXPECT_TRUE(
      ValidateAocOptimal(table_, whole_, kSal, kTax, 0.5, 9).valid);
  EXPECT_FALSE(
      ValidateAocIterative(table_, whole_, kSal, kTax, 0.5, 9).valid);
}

TEST_F(PaperTableTest, IterativeEarlyExitAtThreshold) {
  ValidationOutcome out =
      ValidateAocIterative(table_, whole_, kSal, kTax, 0.1, 9);
  EXPECT_FALSE(out.valid);
  EXPECT_TRUE(out.early_exit);
  // Stops right after crossing floor(0.1 * 9) = 0 removals.
  EXPECT_EQ(out.removal_size, 1);
}

TEST_F(PaperTableTest, IterativeAgreesOnCleanPairs) {
  ValidationOutcome out =
      ValidateAocIterative(table_, whole_, kSal, kTaxGrp, 0.0, 9);
  EXPECT_TRUE(out.valid);
  EXPECT_EQ(out.removal_size, 0);
}

// ------------------------------------------------------------- AOD (OD) --

TEST_F(PaperTableTest, AodValidatorRemovesSplitsToo) {
  // {pos}: exp -> sal: the swap (t8) plus the split (t6, t7) must go.
  auto pos_partition = NaivePartition(table_, AttributeSet::Of({kPos}));
  ValidationOutcome oc =
      ValidateAocOptimal(table_, pos_partition, kExp, kSal, 1.0, 9);
  ValidationOutcome od =
      ValidateAodOptimal(table_, pos_partition, kExp, kSal, 1.0, 9);
  EXPECT_EQ(oc.removal_size, 1);  // swap only
  EXPECT_EQ(od.removal_size, 2);  // swap + one side of the split
}

TEST_F(PaperTableTest, AodOnExactOdIsZero) {
  // {}: sal -> taxGrp holds exactly.
  ValidationOutcome od =
      ValidateAodOptimal(table_, whole_, kSal, kTaxGrp, 0.0, 9);
  EXPECT_TRUE(od.valid);
  EXPECT_EQ(od.removal_size, 0);
}

TEST(AodValidatorTest, SplitOnlyInput) {
  // A equal everywhere, B differs: pure splits, no swaps.
  EncodedTable t = EncodedTableFromInts({"a", "b"}, {{1, 1, 1}, {1, 2, 3}});
  auto whole = StrippedPartition::WholeRelation(3);
  EXPECT_EQ(ValidateAocOptimal(t, whole, 0, 1, 1.0, 3).removal_size, 0);
  EXPECT_EQ(ValidateAodOptimal(t, whole, 0, 1, 1.0, 3).removal_size, 2);
}

// -------------------------------------------------------- OFD validator --

TEST_F(PaperTableTest, OfdApproxCountsMinimalRemoval) {
  // {pos, exp}: [] -> sal fails via (t6, t7); removing one of them fixes
  // it.
  auto pe_partition =
      NaivePartition(table_, AttributeSet::Of({kPos, kExp}));
  ValidatorOptions opts;
  opts.collect_removal_set = true;
  ValidationOutcome out =
      ValidateOfdApprox(table_, pe_partition, kSal, 1.0, 9, opts);
  EXPECT_EQ(out.removal_size, 1);
  EXPECT_NEAR(out.approx_factor, 1.0 / 9.0, 1e-9);
  EXPECT_EQ(out.removal_rows.size(), 1u);
  int32_t removed = out.removal_rows[0];
  EXPECT_TRUE(removed == 5 || removed == 6);  // t6 or t7
}

TEST_F(PaperTableTest, OfdApproxZeroForExact) {
  auto sal_partition = NaivePartition(table_, AttributeSet::Of({kSal}));
  ValidationOutcome out =
      ValidateOfdApprox(table_, sal_partition, kTaxGrp, 0.0, 9);
  EXPECT_TRUE(out.valid);
  EXPECT_EQ(out.removal_size, 0);
}

TEST(OfdValidatorTest, EmptyPartitionVacuouslyHolds) {
  EncodedTable t = EncodedTableFromInts({"a", "b"}, {{1, 2, 3}, {5, 5, 9}});
  StrippedPartition empty = StrippedPartition::FromClasses({});
  EXPECT_TRUE(ValidateOfdExact(t, empty, 1));
  EXPECT_TRUE(ValidateOfdApprox(t, empty, 1, 0.0, 3).valid);
}

TEST(OfdValidatorTest, MajorityValueKept) {
  // One class, values of b: {7, 7, 7, 9, 8}: removal = 2.
  EncodedTable t = EncodedTableFromInts(
      {"a", "b"}, {{1, 1, 1, 1, 1}, {7, 7, 7, 9, 8}});
  auto whole = StrippedPartition::WholeRelation(5);
  ValidationOutcome out = ValidateOfdApprox(t, whole, 1, 1.0, 5);
  EXPECT_EQ(out.removal_size, 2);
}

// ----------------------------------------------- Property: minimality --

struct AocPropertyParam {
  uint64_t seed;
  int64_t rows;
  int cols;
  int64_t cardinality;
};

class AocMinimalityTest : public ::testing::TestWithParam<AocPropertyParam> {
};

TEST_P(AocMinimalityTest, OptimalMatchesBruteForceAndIterativeIsUpperBound) {
  const auto& p = GetParam();
  EncodedTable t = testing_util::RandomEncodedTable(p.rows, p.cols,
                                                    p.cardinality, p.seed);
  ValidatorOptions full;
  full.early_exit = false;
  full.collect_removal_set = true;
  for (int a = 0; a < p.cols; ++a) {
    for (int b = 0; b < p.cols; ++b) {
      if (a == b) continue;
      for (int ctx_attr = -1; ctx_attr < p.cols; ++ctx_attr) {
        if (ctx_attr == a || ctx_attr == b) continue;
        AttributeSet ctx = ctx_attr < 0 ? AttributeSet()
                                        : AttributeSet::Of({ctx_attr});
        StrippedPartition partition = NaivePartition(t, ctx);

        ValidationOutcome optimal =
            ValidateAocOptimal(t, partition, a, b, 1.0, p.rows, full);
        ValidationOutcome iterative =
            ValidateAocIterative(t, partition, a, b, 1.0, p.rows, full);

        // 1. Optimal equals the exponential ground truth.
        int64_t truth = testing_util::MinRemovalOcBruteForce(t, ctx, a, b);
        ASSERT_EQ(optimal.removal_size, truth)
            << "ctx=" << ctx.ToString() << " a=" << a << " b=" << b;

        // 2. The optimal removal set really is a removal set: removing it
        // leaves no swaps.
        std::vector<int32_t> rest;
        std::set<int32_t> removed(optimal.removal_rows.begin(),
                                  optimal.removal_rows.end());
        for (int64_t r = 0; r < p.rows; ++r) {
          if (!removed.count(static_cast<int32_t>(r))) {
            rest.push_back(static_cast<int32_t>(r));
          }
        }
        ASSERT_FALSE(testing_util::HasSwapNaive(t, ctx, a, b, rest));

        // 3. The greedy strategy never does better than the minimum.
        ASSERT_GE(iterative.removal_size, optimal.removal_size);

        // 4. The iterative removal set is also a (non-minimal) removal
        // set.
        rest.clear();
        std::set<int32_t> removed_it(iterative.removal_rows.begin(),
                                     iterative.removal_rows.end());
        for (int64_t r = 0; r < p.rows; ++r) {
          if (!removed_it.count(static_cast<int32_t>(r))) {
            rest.push_back(static_cast<int32_t>(r));
          }
        }
        ASSERT_FALSE(testing_util::HasSwapNaive(t, ctx, a, b, rest));

        // 5. Zero removal <=> the exact validator accepts.
        ASSERT_EQ(optimal.removal_size == 0,
                  ValidateOcExact(t, partition, a, b));

        // 6. Symmetry of OCs: e(A ~ B) == e(B ~ A).
        ValidationOutcome swapped =
            ValidateAocOptimal(t, partition, b, a, 1.0, p.rows, full);
        ASSERT_EQ(swapped.removal_size, optimal.removal_size);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallTables, AocMinimalityTest,
    ::testing::Values(AocPropertyParam{101, 8, 3, 3},
                      AocPropertyParam{102, 10, 3, 4},
                      AocPropertyParam{103, 12, 3, 2},
                      AocPropertyParam{104, 12, 2, 6},
                      AocPropertyParam{105, 14, 2, 4},
                      AocPropertyParam{106, 9, 4, 3}));

// Larger-scale property: optimal removal == n - LNDS bound, cross-checked
// between the two validators without brute force.
class AocLargeAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AocLargeAgreementTest, IterativeUpperBoundsOptimal) {
  EncodedTable t =
      testing_util::RandomEncodedTable(400, 3, 12, GetParam());
  ValidatorOptions full;
  full.early_exit = false;
  for (int ctx_attr = -1; ctx_attr < 3; ++ctx_attr) {
    int a = (ctx_attr == 0) ? 1 : 0;
    int b = (ctx_attr == 2) ? 1 : 2;
    if (a == b || ctx_attr == a || ctx_attr == b) continue;
    AttributeSet ctx =
        ctx_attr < 0 ? AttributeSet() : AttributeSet::Of({ctx_attr});
    StrippedPartition partition = NaivePartition(t, ctx);
    ValidationOutcome optimal =
        ValidateAocOptimal(t, partition, a, b, 1.0, 400, full);
    ValidationOutcome iterative =
        ValidateAocIterative(t, partition, a, b, 1.0, 400, full);
    ASSERT_GE(iterative.removal_size, optimal.removal_size);
    ASSERT_EQ(optimal.removal_size == 0,
              ValidateOcExact(t, partition, a, b));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AocLargeAgreementTest,
                         ::testing::Values(201, 202, 203, 204));

// ------------------------------------------- Packed-key differential --
//
// The size-only LIS path orders classes by packed (rank_a, rank_b) keys
// (radix or std::sort) and runs a budgeted LNDS; the removal-set path and
// pairs wider than 32 key bits sort row ids with a comparator. Both are
// checked against a test-local oracle: a comparator sort of each class by
// [A ASC, sign*B ASC] (B DESC within A-ties for the OD variant) and the
// complement of an LNDS of the projection.

int64_t OracleRemovals(const EncodedTable& t,
                       const StrippedPartition& partition, int a, int b,
                       bool opposite, bool descending_ties) {
  const auto& ranks_a = t.ranks(a);
  const auto& ranks_b = t.ranks(b);
  const int32_t sign = opposite ? -1 : 1;
  int64_t removed = 0;
  std::vector<int32_t> tails;
  for (StrippedPartition::ClassSpan cls : partition.classes()) {
    std::vector<int32_t> rows(cls.begin(), cls.end());
    std::sort(rows.begin(), rows.end(), [&](int32_t s, int32_t u) {
      const int32_t sa = ranks_a[static_cast<size_t>(s)];
      const int32_t ua = ranks_a[static_cast<size_t>(u)];
      if (sa != ua) return sa < ua;
      const int32_t sb = sign * ranks_b[static_cast<size_t>(s)];
      const int32_t ub = sign * ranks_b[static_cast<size_t>(u)];
      return descending_ties ? sb > ub : sb < ub;
    });
    std::vector<int32_t> projection;
    for (int32_t r : rows) {
      projection.push_back(sign * ranks_b[static_cast<size_t>(r)]);
    }
    removed += static_cast<int64_t>(projection.size()) -
               LndsLength(projection, tails);
  }
  return removed;
}

/// Runs both LIS validators on one candidate under every option
/// combination and budget that matters, and checks each verdict against
/// the oracle. Returns the number of validator calls checked.
int CheckAgainstOracle(const EncodedTable& t,
                       const StrippedPartition& partition, int a, int b,
                       bool opposite) {
  const int64_t n = t.num_rows();
  int checked = 0;
  for (bool od : {false, true}) {
    SCOPED_TRACE(::testing::Message()
                 << "a=" << a << " b=" << b << " opposite=" << opposite
                 << " od=" << od << " classes=" << partition.num_classes());
    auto validate = od ? ValidateAodOptimal : ValidateAocOptimal;
    const int64_t exact = OracleRemovals(t, partition, a, b, opposite, od);
    // Budgets: unbounded, exactly the removal size (valid at the
    // boundary), half of it and none (both early exits when exact > 0).
    // The removal-set path is the slow comparator one; two budgets cover
    // its exact and early-exit verdicts.
    const int64_t budgets[] = {n, exact, exact / 2, 0};
    for (int i = 0; i < 4; ++i) {
      const int64_t max_removals = budgets[i];
      const double epsilon =
          n == 0 ? 0.0
                 : static_cast<double>(max_removals) / static_cast<double>(n);
      EXPECT_EQ(MaxRemovals(epsilon, n), max_removals);
      for (bool collect : {false, true}) {
        if (collect && i % 2 == 1) continue;
        for (bool early_exit : {false, true}) {
          ValidatorOptions options;
          options.opposite_polarity = opposite;
          options.collect_removal_set = collect;
          options.early_exit = early_exit;
          ValidatorScratch scratch;
          ValidationOutcome out =
              validate(t, partition, a, b, epsilon, n, options, &scratch);
          ++checked;
          SCOPED_TRACE(::testing::Message()
                       << "max_removals=" << max_removals << " exact="
                       << exact << " collect=" << collect
                       << " early_exit=" << early_exit);
          if (early_exit && exact > max_removals) {
            EXPECT_TRUE(out.early_exit);
            EXPECT_FALSE(out.valid);
            EXPECT_GT(out.removal_size, max_removals);
            EXPECT_LE(out.removal_size, exact);
            continue;
          }
          EXPECT_FALSE(out.early_exit);
          EXPECT_EQ(out.removal_size, exact);
          EXPECT_EQ(out.valid, exact <= max_removals);
          if (collect) {
            EXPECT_EQ(static_cast<int64_t>(out.removal_rows.size()), exact);
          }
        }
      }
    }
    if (!od) {
      EXPECT_EQ(ValidateOcExact(t, partition, a, b, opposite), exact == 0);
    }
  }
  return checked;
}

/// A column over [0, cardinality) with every value present, so its
/// encoded cardinality is exactly `cardinality`.
std::vector<int64_t> ColumnWithCardinality(int64_t rows, int64_t cardinality,
                                           Rng* rng) {
  std::vector<int64_t> out;
  for (int64_t r = 0; r < rows; ++r) {
    out.push_back(r < cardinality ? r : rng->UniformInt(0, cardinality - 1));
  }
  rng->Shuffle(&out);
  return out;
}

/// Redistributes the values of `b` so that they ascend with `a`, then
/// swaps the values of `swap_fraction * rows` random row pairs. Keeps b's
/// multiset, hence its cardinality.
std::vector<int64_t> FollowWithNoise(const std::vector<int64_t>& a,
                                     std::vector<int64_t> b,
                                     double swap_fraction, Rng* rng) {
  std::vector<size_t> by_a(a.size());
  for (size_t r = 0; r < a.size(); ++r) by_a[r] = r;
  std::stable_sort(by_a.begin(), by_a.end(),
                   [&](size_t s, size_t u) { return a[s] < a[u]; });
  std::sort(b.begin(), b.end());
  std::vector<int64_t> out(b.size());
  for (size_t i = 0; i < by_a.size(); ++i) out[by_a[i]] = b[i];
  const int64_t rows = static_cast<int64_t>(out.size());
  const auto swaps =
      static_cast<int64_t>(swap_fraction * static_cast<double>(rows));
  for (int64_t k = 0; k < swaps; ++k) {
    std::swap(out[static_cast<size_t>(rng->UniformInt(0, rows - 1))],
              out[static_cast<size_t>(rng->UniformInt(0, rows - 1))]);
  }
  return out;
}

int RankBits(const EncodedTable& t, int column) {
  const int32_t cardinality = t.column(column).cardinality;
  return cardinality <= 1
             ? 0
             : std::bit_width(static_cast<uint32_t>(cardinality - 1));
}

// Pairs whose key needs 31, 32 (packed) and 33 (comparator) bits, under
// contexts whose classes fall on both sides of the radix crossover,
// including one clustered in A (its classes sort on fewer key bits).
TEST(PackedKeyDifferentialTest, KeyWidthsAroundThe32BitLimit) {
  constexpr int64_t kRows = 70000;
  Rng rng(1601);
  std::vector<std::vector<int64_t>> columns;
  columns.push_back(ColumnWithCardinality(kRows, 40000, &rng));  // a
  columns.push_back(ColumnWithCardinality(kRows, 20000, &rng));  // 15 bits
  columns.push_back(ColumnWithCardinality(kRows, 40000, &rng));  // 16 bits
  columns.push_back(ColumnWithCardinality(kRows, 66000, &rng));  // 17 bits
  // b columns that mostly follow a, so removal sets stay small and the
  // budgets land mid-class.
  for (int c = 1; c <= 3; ++c) {
    columns[static_cast<size_t>(c)] = FollowWithNoise(
        columns[0], std::move(columns[static_cast<size_t>(c)]), 0.05, &rng);
  }
  columns.push_back(ColumnWithCardinality(kRows, 2, &rng));
  columns.push_back(ColumnWithCardinality(kRows, 50, &rng));
  columns.push_back(ColumnWithCardinality(kRows, 2000, &rng));
  std::vector<int64_t> clustered;
  for (int64_t v : columns[0]) clustered.push_back(v >> 10);
  columns.push_back(std::move(clustered));
  EncodedTable t = EncodedTableFromInts(
      {"a", "b15", "b16", "b17", "c2", "c50", "c2000", "a_hi"}, columns);
  ASSERT_EQ(RankBits(t, 0), 16);
  ASSERT_EQ(RankBits(t, 0) + RankBits(t, 1), 31);
  ASSERT_EQ(RankBits(t, 0) + RankBits(t, 2), 32);
  ASSERT_EQ(RankBits(t, 0) + RankBits(t, 3), 33);

  std::vector<StrippedPartition> contexts;
  contexts.push_back(StrippedPartition::WholeRelation(kRows));
  for (int c = 5; c < 8; ++c) {
    contexts.push_back(StrippedPartition::FromColumn(t.column(c)));
  }
  int checked = 0;
  for (const StrippedPartition& partition : contexts) {
    for (int b = 1; b <= 3; ++b) {
      for (bool opposite : {false, true}) {
        checked += CheckAgainstOracle(t, partition, 0, b, opposite);
      }
    }
  }
  EXPECT_EQ(checked, 4 * 3 * 2 * 2 * 12);
}

// Random small tables: cardinalities from 1 to the row count (so key
// widths from 0 bits up), class sizes from 2 to the whole table.
TEST(PackedKeyDifferentialTest, RandomTablesMatchTheOracle) {
  Rng rng(1602);
  int checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const int64_t rows = rng.UniformInt(1, 3000);
    std::vector<std::vector<int64_t>> columns;
    for (int c = 0; c < 4; ++c) {
      // Log-uniform cardinality in [1, rows].
      const int64_t cardinality = std::max<int64_t>(
          1, static_cast<int64_t>(std::pow(
                 static_cast<double>(rows), rng.UniformDouble())));
      columns.push_back(ColumnWithCardinality(rows, cardinality, &rng));
    }
    // Make b follow a up to some swaps, so that both valid and invalid
    // verdicts occur.
    columns[1] = FollowWithNoise(columns[0], std::move(columns[1]),
                                 rng.UniformDouble() * 0.2, &rng);
    EncodedTable t =
        EncodedTableFromInts({"a", "b", "c", "d"}, columns);
    PartitionCache cache(&t);
    for (AttributeSet ctx : {AttributeSet(), AttributeSet::Of({2}),
                             AttributeSet::Of({3}),
                             AttributeSet::Of({2, 3})}) {
      auto partition = cache.Get(ctx);
      for (bool opposite : {false, true}) {
        checked += CheckAgainstOracle(t, *partition, 0, 1, opposite);
        checked += CheckAgainstOracle(t, *partition, 1, 0, opposite);
      }
    }
  }
  EXPECT_EQ(checked, 40 * 4 * 2 * 2 * 2 * 12);
}

// MaxRemovals boundary semantics.
TEST(MaxRemovalsTest, FloorWithGuard) {
  EXPECT_EQ(MaxRemovals(0.0, 100), 0);
  EXPECT_EQ(MaxRemovals(0.1, 100), 10);
  EXPECT_EQ(MaxRemovals(0.1, 105), 10);   // floor(10.5)
  EXPECT_EQ(MaxRemovals(1.0, 100), 100);
  EXPECT_EQ(MaxRemovals(4.0 / 9.0, 9), 4);  // no FP round-down
  EXPECT_EQ(MaxRemovals(0.3, 10), 3);       // 0.3*10 = 2.9999... -> 3
}

}  // namespace
}  // namespace aod
