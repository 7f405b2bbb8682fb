// Randomized stress tests: high-volume cross-validation of every
// validator against every other on generated tables. Complements the
// small brute-force property tests with breadth — hundreds of random
// candidates per run, all invariants checked on each.
#include <gtest/gtest.h>

#include <set>

#include "data/encoder.h"
#include "gen/dataset_generator.h"
#include "gen/random.h"
#include "od/aoc_iterative_validator.h"
#include "od/aoc_lis_validator.h"
#include "od/discovery.h"
#include "od/oc_validator.h"
#include "od/ofd_validator.h"
#include "partition/partition_cache.h"
#include "test_util.h"

namespace aod {
namespace {

struct StressParam {
  uint64_t seed;
  int64_t rows;
  int cols;
  int64_t cardinality;
};

class ValidatorStressTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(ValidatorStressTest, AllValidatorsMutuallyConsistent) {
  const auto& p = GetParam();
  EncodedTable t = testing_util::RandomEncodedTable(p.rows, p.cols,
                                                    p.cardinality, p.seed);
  PartitionCache cache(&t);
  ValidatorOptions full;
  full.early_exit = false;
  full.collect_removal_set = true;

  for (int ctx_attr = -1; ctx_attr < p.cols; ++ctx_attr) {
    AttributeSet ctx =
        ctx_attr < 0 ? AttributeSet() : AttributeSet::Of({ctx_attr});
    auto partition = cache.Get(ctx);
    for (int a = 0; a < p.cols; ++a) {
      for (int b = a + 1; b < p.cols; ++b) {
        if (a == ctx_attr || b == ctx_attr) continue;
        ValidationOutcome optimal = ValidateAocOptimal(
            t, *partition, a, b, 1.0, p.rows, full);
        ValidationOutcome iterative = ValidateAocIterative(
            t, *partition, a, b, 1.0, p.rows, full);
        bool exact = ValidateOcExact(t, *partition, a, b);
        int64_t swaps = CountOcSwaps(t, *partition, a, b);

        // Exactness is equivalent across all formulations.
        ASSERT_EQ(exact, optimal.removal_size == 0);
        ASSERT_EQ(exact, iterative.removal_size == 0);
        ASSERT_EQ(exact, swaps == 0);

        // Greedy never beats the minimum; both produce genuine removal
        // sets (sizes match the recorded rows).
        ASSERT_GE(iterative.removal_size, optimal.removal_size);
        ASSERT_EQ(static_cast<int64_t>(optimal.removal_rows.size()),
                  optimal.removal_size);
        ASSERT_EQ(static_cast<int64_t>(iterative.removal_rows.size()),
                  iterative.removal_size);

        // Removal sets contain no duplicates and only rows from
        // non-singleton context classes.
        std::set<int32_t> unique(optimal.removal_rows.begin(),
                                 optimal.removal_rows.end());
        ASSERT_EQ(static_cast<int64_t>(unique.size()),
                  optimal.removal_size);

        // A removal set can never exceed rows_covered - #classes (each
        // class keeps at least one tuple).
        ASSERT_LE(optimal.removal_size,
                  partition->rows_covered() - partition->num_classes());

        // OD variant costs at least the OC variant (it also kills
        // splits).
        ValidationOutcome od = ValidateAodOptimal(t, *partition, a, b, 1.0,
                                                  p.rows, full);
        ASSERT_GE(od.removal_size, optimal.removal_size);

        // The size-only path discovery runs (packed keys, budgeted LNDS)
        // agrees with the removal-set path: exactly without early exit,
        // and with it a budget one short of the optimum stops with a
        // removal size in (budget, exact].
        for (bool polarity : {false, true}) {
          ValidatorOptions with_rows = full;
          with_rows.opposite_polarity = polarity;
          for (auto validate : {ValidateAocOptimal, ValidateAodOptimal}) {
            const int64_t exact =
                validate(t, *partition, a, b, 1.0, p.rows, with_rows, nullptr)
                    .removal_size;
            ValidatorOptions size_only = with_rows;
            size_only.collect_removal_set = false;
            ValidationOutcome unbounded =
                validate(t, *partition, a, b, 1.0, p.rows, size_only, nullptr);
            ASSERT_EQ(unbounded.removal_size, exact);
            ASSERT_TRUE(unbounded.removal_rows.empty());
            size_only.early_exit = true;
            ASSERT_EQ(validate(t, *partition, a, b, 1.0, p.rows, size_only,
                               nullptr)
                          .removal_size,
                      exact);
            if (exact == 0) continue;
            const double short_epsilon = static_cast<double>(exact - 1) /
                                         static_cast<double>(p.rows);
            ValidationOutcome bounded = validate(
                t, *partition, a, b, short_epsilon, p.rows, size_only, nullptr);
            ASSERT_FALSE(bounded.valid);
            ASSERT_TRUE(bounded.early_exit);
            ASSERT_GT(bounded.removal_size, exact - 1);
            ASSERT_LE(bounded.removal_size, exact);
          }
        }

        // OFD on top: removing the OD removal set must leave b
        // constant-per-(ctx+a)-class and swap-free; spot-check via the
        // exact validators on the reduced table for small inputs.
        if (p.rows <= 60) {
          std::set<int32_t> removed(od.removal_rows.begin(),
                                    od.removal_rows.end());
          std::vector<std::vector<int64_t>> cols_kept(
              static_cast<size_t>(p.cols));
          for (int64_t r = 0; r < p.rows; ++r) {
            if (removed.count(static_cast<int32_t>(r))) continue;
            for (int c = 0; c < p.cols; ++c) {
              cols_kept[static_cast<size_t>(c)].push_back(
                  t.ranks(c)[static_cast<size_t>(r)]);
            }
          }
          std::vector<std::string> names;
          for (int c = 0; c < p.cols; ++c) {
            names.push_back("c" + std::to_string(c));
          }
          EncodedTable reduced = EncodedTableFromInts(names, cols_kept);
          StrippedPartition rctx = testing_util::NaivePartition(
              reduced, ctx_attr < 0 ? AttributeSet()
                                    : AttributeSet::Of({ctx_attr}));
          ASSERT_TRUE(ValidateOcExact(reduced, rctx, a, b));
          StrippedPartition rctx_a = testing_util::NaivePartition(
              reduced, ctx_attr < 0
                           ? AttributeSet::Of({a})
                           : AttributeSet::Of({ctx_attr, a}));
          ASSERT_TRUE(ValidateOfdExact(reduced, rctx_a, b));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ValidatorStressTest,
    ::testing::Values(StressParam{901, 40, 4, 3},
                      StressParam{902, 60, 4, 6},
                      StressParam{903, 500, 3, 10},
                      StressParam{904, 500, 3, 100},
                      StressParam{905, 2000, 3, 4},
                      StressParam{906, 2000, 3, 1000}));

class DiscoveryStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DiscoveryStressTest, GeneratedTablesNeverCrashOrHang) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<ColumnSpec> specs;
    int cols = static_cast<int>(rng.UniformInt(2, 7));
    for (int c = 0; c < cols; ++c) {
      ColumnSpec spec;
      spec.name = "c" + std::to_string(c);
      switch (rng.UniformInt(0, 4)) {
        case 0:
          spec.kind = ColumnKind::kSequentialKey;
          break;
        case 1:
          spec.kind = ColumnKind::kUniformInt;
          spec.cardinality = rng.UniformInt(1, 50);
          break;
        case 2:
          spec.kind = ColumnKind::kZipfInt;
          spec.cardinality = rng.UniformInt(2, 30);
          spec.zipf_s = 1.0;
          break;
        case 3:
          if (c > 0) {
            spec.kind = ColumnKind::kMonotoneWithErrors;
            spec.base_column = static_cast<int>(rng.UniformInt(0, c - 1));
            spec.violation_rate = rng.UniformDouble() * 0.3;
            // Derived kinds need an integer base; all kinds here are.
          } else {
            spec.kind = ColumnKind::kUniformInt;
            spec.cardinality = 10;
          }
          break;
        default:
          spec.kind = ColumnKind::kUniformInt;
          spec.cardinality = 2;
          break;
      }
      specs.push_back(std::move(spec));
    }
    Table raw = GenerateTable(specs, rng.UniformInt(2, 400),
                              rng.NextUint64());
    EncodedTable t = EncodeTable(raw);
    DiscoveryOptions options;
    options.epsilon = rng.UniformDouble() * 0.3;
    options.bidirectional = rng.Bernoulli(0.5);
    options.num_threads = static_cast<int>(rng.UniformInt(1, 4));
    DiscoveryResult result = DiscoverOds(t, options);
    // Sanity: no dependency may reference an attribute twice.
    for (const DiscoveredDependency* d : result.Ocs()) {
      ASSERT_NE(d->a, d->b);
      ASSERT_FALSE(d->context.Contains(d->a));
      ASSERT_FALSE(d->context.Contains(d->b));
      ASSERT_LE(d->error, options.epsilon + 1e-9);
    }
    for (const DiscoveredDependency* d : result.Ofds()) {
      ASSERT_FALSE(d->context.Contains(d->a));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiscoveryStressTest,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(PartitionCacheStressTest, ColdLookupBuildsFromSingletons) {
  // Request a size-3 partition with no size-2 partitions cached: the
  // cache must fall back to building up from a singleton.
  EncodedTable t = testing_util::RandomEncodedTable(200, 5, 3, 13);
  PartitionCache cache(&t);
  auto direct = cache.Get(AttributeSet::Of({1, 3, 4}));
  auto naive = testing_util::NaivePartition(t, AttributeSet::Of({1, 3, 4}));
  EXPECT_EQ(direct->num_classes(), naive.num_classes());
  EXPECT_EQ(direct->rows_covered(), naive.rows_covered());
  EXPECT_GT(cache.products_computed(), 0);
}

}  // namespace
}  // namespace aod
