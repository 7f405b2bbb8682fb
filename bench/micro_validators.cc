// Google-benchmark microbenchmarks of the validation kernels.
//
// Reproduces the complexity analysis of paper Sec. 3.2/3.3 at the level
// of a single candidate: Alg. 2 (LIS) is O(m log m) in the class size m,
// Alg. 1 (iterative) is O(m log m + eps * m^2). Also covers the
// supporting kernels (LNDS, inversion counting, partition product) and
// the ablation called out in DESIGN.md: Fenwick-based per-element
// inversion counting vs plain merge-sort total counting.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "algo/inversions.h"
#include "algo/lnds.h"
#include "algo/radix_sort.h"
#include "data/encoder.h"
#include "gen/dataset_generator.h"
#include "gen/random.h"
#include "od/aoc_iterative_validator.h"
#include "od/aoc_lis_validator.h"
#include "od/fd_validator.h"
#include "od/oc_validator.h"
#include "od/ofd_validator.h"
#include "partition/stripped_partition.h"

namespace aod {
namespace {

/// One big class (empty context) over a pair with ~8% violations: the
/// worst case for both validators and the setting of Figure 2.
EncodedTable MakePairTable(int64_t rows) {
  Table t = GenerateTable(
      {{.name = "a", .kind = ColumnKind::kUniformInt, .cardinality = 1 << 20},
       {.name = "b", .kind = ColumnKind::kMonotoneWithErrors,
        .base_column = 0, .violation_rate = 0.08}},
      rows, 42);
  return EncodeTable(t);
}

std::vector<int32_t> RandomSequence(int64_t n, int64_t cardinality,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> out;
  out.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    out.push_back(static_cast<int32_t>(rng.UniformInt(0, cardinality - 1)));
  }
  return out;
}

void BM_LndsLength(benchmark::State& state) {
  auto xs = RandomSequence(state.range(0), 1 << 20, 7);
  std::vector<int32_t> tails;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LndsLength(xs, tails));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LndsLength)->Range(1 << 10, 1 << 17)->Complexity();

void BM_LndsIndices(benchmark::State& state) {
  auto xs = RandomSequence(state.range(0), 1 << 20, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LndsIndices(xs));
  }
}
BENCHMARK(BM_LndsIndices)->Range(1 << 10, 1 << 17);

// The crossover sweep behind PairOrder's kBucketsPerKey: 2^16 packed
// (rank_a << bits_b | b') keys split into classes of k keys each, ordered
// class by class with std::sort (method 0) or RadixSortKeys (method 1).
// Args: {k, method, key bits}. Every iteration re-copies the unsorted
// keys, which costs both methods the same.
void BM_SortPackedKeys(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const bool radix = state.range(1) != 0;
  const int key_bits = static_cast<int>(state.range(2));
  constexpr size_t kKeys = size_t{1} << 16;
  Rng rng(11);
  std::vector<uint32_t> input(kKeys);
  for (uint32_t& key : input) {
    key = static_cast<uint32_t>(rng.NextUint64() >> (64 - key_bits));
  }
  std::vector<uint32_t> keys(kKeys);
  std::vector<uint32_t> tmp(kKeys);
  for (auto _ : state) {
    std::copy(input.begin(), input.end(), keys.begin());
    for (size_t begin = 0; begin < kKeys; begin += k) {
      uint32_t* first = keys.data() + begin;
      if (radix) {
        benchmark::DoNotOptimize(
            RadixSortKeys(first, tmp.data() + begin, k, key_bits));
      } else {
        std::sort(first, first + k);
      }
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kKeys));
}
BENCHMARK(BM_SortPackedKeys)
    ->ArgsProduct({benchmark::CreateRange(16, 1 << 16, 2), {0, 1},
                   {16, 20, 24, 28, 32}});

void BM_CountInversionsMergeSort(benchmark::State& state) {
  auto xs = RandomSequence(state.range(0), 1 << 20, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountInversions(xs));
  }
}
BENCHMARK(BM_CountInversionsMergeSort)->Range(1 << 10, 1 << 17);

// Ablation: Fenwick-based per-element counting costs ~2x the merge-sort
// total count but yields the per-tuple counts Alg. 1 needs.
void BM_PerElementInversionsFenwick(benchmark::State& state) {
  auto xs = RandomSequence(state.range(0), 1 << 20, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PerElementInversions(xs));
  }
}
BENCHMARK(BM_PerElementInversionsFenwick)->Range(1 << 10, 1 << 17);

void BM_ValidateAocOptimal(benchmark::State& state) {
  EncodedTable t = MakePairTable(state.range(0));
  auto whole = StrippedPartition::WholeRelation(t.num_rows());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ValidateAocOptimal(t, whole, 0, 1, 0.10, t.num_rows()));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ValidateAocOptimal)->Range(1 << 10, 1 << 16)->Complexity();

void BM_ValidateAocIterative(benchmark::State& state) {
  EncodedTable t = MakePairTable(state.range(0));
  auto whole = StrippedPartition::WholeRelation(t.num_rows());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ValidateAocIterative(t, whole, 0, 1, 0.10, t.num_rows()));
  }
  state.SetComplexityN(state.range(0));
}
// Quadratic: cap the range two steps earlier than the optimal validator.
BENCHMARK(BM_ValidateAocIterative)->Range(1 << 10, 1 << 14)->Complexity();

void BM_ValidateOcExact(benchmark::State& state) {
  EncodedTable t = MakePairTable(state.range(0));
  auto whole = StrippedPartition::WholeRelation(t.num_rows());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValidateOcExact(t, whole, 0, 1));
  }
}
BENCHMARK(BM_ValidateOcExact)->Range(1 << 10, 1 << 16);

void BM_ValidateOfdApprox(benchmark::State& state) {
  Table raw = GenerateTable(
      {{.name = "ctx", .kind = ColumnKind::kUniformInt, .cardinality = 64},
       {.name = "a", .kind = ColumnKind::kUniformInt, .cardinality = 16}},
      state.range(0), 5);
  EncodedTable t = EncodeTable(raw);
  auto partition = StrippedPartition::FromColumn(t.column(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ValidateOfdApprox(t, partition, 1, 0.10, t.num_rows()));
  }
}
BENCHMARK(BM_ValidateOfdApprox)->Range(1 << 10, 1 << 17);

// The target is functionally determined by the context, so the holding
// case is measured: the refinement test must walk every class to the
// end instead of bailing at the first split.
void BM_ValidateFdExact(benchmark::State& state) {
  Table raw = GenerateTable(
      {{.name = "ctx", .kind = ColumnKind::kUniformInt, .cardinality = 64},
       {.name = "a", .kind = ColumnKind::kDerivedPermuted,
        .cardinality = 64, .base_column = 0}},
      state.range(0), 5);
  EncodedTable t = EncodeTable(raw);
  auto partition = StrippedPartition::FromColumn(t.column(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValidateFdExact(t, partition, 1));
  }
}
BENCHMARK(BM_ValidateFdExact)->Range(1 << 10, 1 << 17);

// The g1 frequency pass over every context class: one histogram per
// class, violations = |c|^2 - sum cnt^2. Same workload shape as the
// OFD row so the two approximate target validators are comparable.
void BM_ValidateAfdG1(benchmark::State& state) {
  Table raw = GenerateTable(
      {{.name = "ctx", .kind = ColumnKind::kUniformInt, .cardinality = 64},
       {.name = "a", .kind = ColumnKind::kUniformInt, .cardinality = 16}},
      state.range(0), 5);
  EncodedTable t = EncodeTable(raw);
  auto partition = StrippedPartition::FromColumn(t.column(0));
  ValidatorOptions options;
  options.early_exit = false;  // measure the full pass, not the bail-out
  ValidatorScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ValidateAfdG1(t, partition, 1, 0.10, t.num_rows(), options,
                      &scratch));
  }
}
BENCHMARK(BM_ValidateAfdG1)->Range(1 << 10, 1 << 17);

void BM_PartitionProduct(benchmark::State& state) {
  Table raw = GenerateTable(
      {{.name = "x", .kind = ColumnKind::kUniformInt, .cardinality = 128},
       {.name = "y", .kind = ColumnKind::kUniformInt, .cardinality = 128}},
      state.range(0), 6);
  EncodedTable t = EncodeTable(raw);
  auto px = StrippedPartition::FromColumn(t.column(0));
  auto py = StrippedPartition::FromColumn(t.column(1));
  PartitionScratch scratch(t.num_rows());
  for (auto _ : state) {
    benchmark::DoNotOptimize(px.Product(py, t.num_rows(), &scratch));
  }
}
BENCHMARK(BM_PartitionProduct)->Range(1 << 10, 1 << 17);

void BM_EncodeColumn(benchmark::State& state) {
  Table raw = GenerateTable(
      {{.name = "v", .kind = ColumnKind::kUniformInt,
        .cardinality = 1 << 16}},
      state.range(0), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeColumn(raw.column(0)));
  }
}
BENCHMARK(BM_EncodeColumn)->Range(1 << 10, 1 << 17);

}  // namespace
}  // namespace aod

BENCHMARK_MAIN();
