// Microbenchmark of the partition hot paths: CSR stripped product vs the
// legacy vector-of-vectors representation, plus validator throughput on
// generated tables, and the rank encoding every discovery run starts with.
//
// The legacy algorithm (one heap-allocated bucket per class, a fresh
// vector-of-vectors per product) is reimplemented here verbatim as the
// baseline, so the CSR speedup is *recorded by this harness* instead of
// asserted in a commit message. Output is human-readable on stdout and,
// with --json <path>, a machine-readable JSON blob (CI uploads it as
// BENCH_micro_partitions.json).
//
// Defaults target a 1M-row table; AOD_BENCH_SCALE scales rows like every
// other harness (CI smoke-runs at a fraction of that).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "data/encoder.h"
#include "gen/dataset_generator.h"
#include "gen/flight_generator.h"
#include "gen/ncvoter_generator.h"
#include "gen/random.h"
#include "od/aoc_lis_validator.h"
#include "od/oc_validator.h"
#include "od/ofd_validator.h"
#include "od/validator_scratch.h"
#include "partition/attribute_set.h"
#include "partition/partition_cache.h"
#include "partition/stripped_partition.h"

namespace aod {
namespace bench {
namespace {

/// The pre-CSR representation and product, kept verbatim as the baseline.
struct LegacyPartition {
  std::vector<std::vector<int32_t>> classes;
  int64_t rows_covered = 0;

  static LegacyPartition FromCsr(const StrippedPartition& p) {
    LegacyPartition out;
    out.rows_covered = p.rows_covered();
    for (StrippedPartition::ClassSpan cls : p.classes()) {
      out.classes.emplace_back(cls.begin(), cls.end());
    }
    return out;
  }

  LegacyPartition Product(const LegacyPartition& other,
                          std::vector<int32_t>& class_of) const {
    for (size_t i = 0; i < classes.size(); ++i) {
      for (int32_t t : classes[i]) {
        class_of[static_cast<size_t>(t)] = static_cast<int32_t>(i);
      }
    }
    LegacyPartition out;
    std::vector<std::vector<int32_t>> buckets(classes.size());
    for (const auto& cls : other.classes) {
      for (int32_t t : cls) {
        int32_t c = class_of[static_cast<size_t>(t)];
        if (c >= 0) buckets[static_cast<size_t>(c)].push_back(t);
      }
      for (int32_t t : cls) {
        int32_t c = class_of[static_cast<size_t>(t)];
        if (c < 0) continue;
        auto& bucket = buckets[static_cast<size_t>(c)];
        if (bucket.size() >= 2) {
          out.rows_covered += static_cast<int64_t>(bucket.size());
          out.classes.push_back(std::move(bucket));
        }
        bucket.clear();
      }
    }
    for (const auto& cls : classes) {
      for (int32_t t : cls) class_of[static_cast<size_t>(t)] = -1;
    }
    return out;
  }
};

/// Runs `fn` until >= min_reps and >= min_seconds; returns seconds/rep.
template <typename Fn>
double TimePerRep(int min_reps, double min_seconds, Fn&& fn) {
  Stopwatch sw;
  int reps = 0;
  do {
    fn();
    ++reps;
  } while (reps < min_reps || sw.ElapsedSeconds() < min_seconds);
  return sw.ElapsedSeconds() / static_cast<double>(reps);
}

struct ProductResult {
  std::string name;
  int64_t out_classes = 0;
  double csr_seconds = 0.0;
  double legacy_seconds = 0.0;
  double speedup() const {
    return csr_seconds > 0.0 ? legacy_seconds / csr_seconds : 0.0;
  }
};

ProductResult BenchProduct(const char* name, const EncodedTable& t,
                           int64_t rows) {
  ProductResult r;
  r.name = name;
  auto px = StrippedPartition::FromColumn(t.column(0));
  auto py = StrippedPartition::FromColumn(t.column(1));
  PartitionScratch scratch(rows);
  r.out_classes = px.Product(py, rows, &scratch).num_classes();

  r.csr_seconds = TimePerRep(3, 0.3, [&] {
    StrippedPartition prod = px.Product(py, rows, &scratch);
    if (prod.rows_covered() < 0) std::abort();  // keep the result alive
  });

  LegacyPartition lx = LegacyPartition::FromCsr(px);
  LegacyPartition ly = LegacyPartition::FromCsr(py);
  std::vector<int32_t> class_of(static_cast<size_t>(rows), -1);
  r.legacy_seconds = TimePerRep(3, 0.3, [&] {
    LegacyPartition prod = lx.Product(ly, class_of);
    if (prod.rows_covered < 0) std::abort();
  });
  return r;
}

struct ValidationResult {
  std::string name;
  double seconds = 0.0;  // per validation call over the whole partition
};

struct DerivationResult {
  std::string name;
  AttributeSet planner_base;
  double fixed_seconds = 0.0;
  double planner_seconds = 0.0;
  double speedup() const {
    return planner_seconds > 0.0 ? fixed_seconds / planner_seconds : 0.0;
  }
};

struct EncodeResult {
  std::string name;
  int64_t rows = 0;
  int columns = 0;
  double ms_per_column = 0.0;
  int64_t distinct = 0;          // dictionary entries over all columns
  int64_t dictionary_bytes = 0;  // their typed storage
};

/// `in` with its rows in a seeded random order, so no column arrives
/// pre-sorted by generation order.
Table ShuffleRows(const Table& in, uint64_t seed) {
  std::vector<int64_t> perm(static_cast<size_t>(in.num_rows()));
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int64_t>(i);
  Rng(seed).Shuffle(&perm);
  Table out(in.schema());
  std::vector<Value> row(static_cast<size_t>(in.num_columns()));
  for (int64_t r : perm) {
    for (int c = 0; c < in.num_columns(); ++c) {
      row[static_cast<size_t>(c)] = in.GetValue(r, c);
    }
    out.AppendRow(row);
  }
  return out;
}

/// Bytes a dictionary holds: a validity byte per entry plus the typed
/// slot, and the heap text of strings too long for the inline buffer.
int64_t DictionaryBytes(const Column& dict) {
  int64_t bytes = 0;
  for (int64_t r = 0; r < dict.size(); ++r) {
    bytes += 1;
    if (dict.type() != DataType::kString) {
      bytes += 8;
      continue;
    }
    const std::string& s = dict.strings()[static_cast<size_t>(r)];
    bytes += static_cast<int64_t>(sizeof(std::string));
    if (s.capacity() > std::string().capacity()) {
      bytes += static_cast<int64_t>(s.capacity()) + 1;
    }
  }
  return bytes;
}

EncodeResult BenchEncode(const char* name, const Table& table) {
  EncodeResult r;
  r.name = name;
  r.rows = table.num_rows();
  r.columns = table.num_columns();
  const EncodedTable encoded = EncodeTable(table);
  for (int c = 0; c < encoded.num_columns(); ++c) {
    r.distinct += encoded.column(c).dictionary.size();
    r.dictionary_bytes += DictionaryBytes(encoded.column(c).dictionary);
  }
  r.ms_per_column = 1e3 / r.columns * TimePerRep(3, 0.3, [&] {
    if (EncodeTable(table).num_rows() < 0) std::abort();
  });
  return r;
}

/// Planner vs fixed rule on a skewed-cardinality workload: two
/// near-distinct attributes (cheap, almost all singleton classes) and one
/// low-cardinality attribute at the highest index (expensive, covers
/// every row). Mid-discovery cache state: all pairs published. The fixed
/// rule must derive Π_{s1,s2,k} as Π_{s1,s2} · Π_k — scanning the
/// expensive single — while the planner starts from a published pair
/// that already contains k and extends it with a near-singleton single.
DerivationResult BenchDerivation(const EncodedTable& t, int64_t rows) {
  DerivationResult r;
  r.name = "skewed_cardinality";
  const AttributeSet target = AttributeSet::Of({0, 1, 2});

  PartitionCache cache(&t);
  for (uint64_t bits : {0b011u, 0b101u, 0b110u}) {
    cache.PublishCost(AttributeSet(bits));
  }
  DerivationPlan plan = cache.PlanDerivation(target);
  r.planner_base = plan.base;

  auto base_fixed = cache.Get(AttributeSet::Of({0, 1}));
  auto base_planned = cache.Get(plan.base);
  std::vector<std::shared_ptr<const StrippedPartition>> singles;
  for (int a = 0; a < 3; ++a) singles.push_back(cache.Get(AttributeSet().With(a)));
  PartitionScratch scratch(rows);

  r.fixed_seconds = TimePerRep(3, 0.3, [&] {
    StrippedPartition prod = base_fixed->Product(*singles[2], rows, &scratch);
    if (prod.rows_covered() < 0) std::abort();
  });
  r.planner_seconds = TimePerRep(3, 0.3, [&] {
    std::shared_ptr<const StrippedPartition> cur = base_planned;
    for (int a : plan.singles) {
      cur = std::make_shared<StrippedPartition>(
          cur->Product(*singles[static_cast<size_t>(a)], rows, &scratch));
    }
    if (cur->rows_covered() < 0) std::abort();
  });
  return r;
}

}  // namespace
}  // namespace bench
}  // namespace aod

int main(int argc, char** argv) {
  using namespace aod;
  using namespace aod::bench;

  const char* json_path = JsonPathArg(argc, argv);
  int64_t base_rows = 1000000;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--rows") == 0) base_rows = std::atoll(argv[i + 1]);
  }
  const int64_t rows = ScaledRows(base_rows);

  PrintHeaderLine("micro_partitions: CSR product and validator throughput");
  std::printf("rows: %lld (base %lld x AOD_BENCH_SCALE)\n",
              static_cast<long long>(rows), static_cast<long long>(base_rows));

  // -- Partition product: CSR vs legacy vector-of-vectors ----------------
  // mid: dense classes (128x128 grid, large surviving buckets);
  // fine: 4096x4096 (many small buckets — allocation-bound for legacy);
  // singleton: high-cardinality product output is almost all singletons.
  std::vector<ProductResult> products;
  {
    Table raw = GenerateTable(
        {{.name = "x", .kind = ColumnKind::kUniformInt, .cardinality = 128},
         {.name = "y", .kind = ColumnKind::kUniformInt, .cardinality = 128}},
        rows, 6);
    products.push_back(BenchProduct("mid_cardinality", EncodeTable(raw), rows));
  }
  {
    Table raw = GenerateTable(
        {{.name = "x", .kind = ColumnKind::kUniformInt, .cardinality = 4096},
         {.name = "y", .kind = ColumnKind::kUniformInt, .cardinality = 4096}},
        rows, 7);
    products.push_back(BenchProduct("fine_cardinality", EncodeTable(raw),
                                    rows));
  }
  {
    Table raw = GenerateTable(
        {{.name = "x", .kind = ColumnKind::kUniformInt,
          .cardinality = rows / 2 < 2 ? 2 : rows / 2},
         {.name = "y", .kind = ColumnKind::kUniformInt, .cardinality = 64}},
        rows, 8);
    products.push_back(BenchProduct("singleton_heavy", EncodeTable(raw),
                                    rows));
  }

  std::printf("\n%-18s %12s %12s %12s %9s\n", "product", "classes",
              "csr s/rep", "legacy s/rep", "speedup");
  for (const ProductResult& r : products) {
    std::printf("%-18s %12lld %12.5f %12.5f %8.2fx\n", r.name.c_str(),
                static_cast<long long>(r.out_classes), r.csr_seconds,
                r.legacy_seconds, r.speedup());
  }

  // -- Derivation planner vs fixed rule ---------------------------------
  // s1/s2 near-distinct (cheap), k low-cardinality at the highest index
  // (the fixed rule's mandatory single).
  DerivationResult derivation = [&] {
    Table raw = GenerateTable(
        {{.name = "s1", .kind = ColumnKind::kUniformInt,
          .cardinality = 32 * rows},
         {.name = "s2", .kind = ColumnKind::kUniformInt,
          .cardinality = 32 * rows},
         {.name = "k", .kind = ColumnKind::kUniformInt, .cardinality = 4}},
        rows, 10);
    return BenchDerivation(EncodeTable(raw), rows);
  }();
  std::printf("\n%-18s %16s %14s %14s %9s\n", "derivation", "planner base",
              "fixed s/rep", "planner s/rep", "speedup");
  std::printf("%-18s %16s %14.5f %14.5f %8.2fx\n", derivation.name.c_str(),
              derivation.planner_base.ToString().c_str(),
              derivation.fixed_seconds, derivation.planner_seconds,
              derivation.speedup());

  // -- Validator throughput on a realistic context ----------------------
  // ctx (cardinality 256) is the context partition; a ~ b is an OC with a
  // known violation rate, so the exact validator exercises its early exit
  // and the LIS validator does full work.
  Table raw = GenerateTable(
      {{.name = "ctx", .kind = ColumnKind::kUniformInt, .cardinality = 256},
       {.name = "a", .kind = ColumnKind::kUniformInt,
        .cardinality = 1 << 20},
       {.name = "b", .kind = ColumnKind::kMonotoneWithErrors,
        .base_column = 1, .violation_rate = 0.05},
       {.name = "c", .kind = ColumnKind::kUniformInt, .cardinality = 16}},
      rows, 9);
  EncodedTable vt = EncodeTable(raw);
  auto ctx = StrippedPartition::FromColumn(vt.column(0));
  ValidatorScratch vscratch;

  std::vector<ValidationResult> validations;
  validations.push_back(
      {"oc_exact", TimePerRep(3, 0.3, [&] {
         bool ok = ValidateOcExact(vt, ctx, 1, 2, false, &vscratch);
         if (ok && vt.num_rows() < 0) std::abort();
       })});
  validations.push_back(
      {"aoc_optimal_e10", TimePerRep(3, 0.3, [&] {
         ValidationOutcome out = ValidateAocOptimal(vt, ctx, 1, 2, 0.10,
                                                    vt.num_rows(), {},
                                                    &vscratch);
         if (out.removal_size < 0) std::abort();
       })});
  validations.push_back(
      {"ofd_approx_e10", TimePerRep(3, 0.3, [&] {
         ValidationOutcome out = ValidateOfdApprox(vt, ctx, 3, 0.10,
                                                   vt.num_rows(), {},
                                                   &vscratch);
         if (out.removal_size < 0) std::abort();
       })});

  std::printf("\n%-18s %12s %14s\n", "validator", "s/call", "Mrows/s");
  for (const ValidationResult& v : validations) {
    double mrows = v.seconds > 0.0
                       ? static_cast<double>(ctx.rows_covered()) /
                             v.seconds / 1e6
                       : 0.0;
    std::printf("%-18s %12.5f %14.2f\n", v.name.c_str(), v.seconds, mrows);
  }

  // -- Rank encoding: shuffled flight-like and ncvoter-like tables ------
  std::vector<EncodeResult> encodes;
  encodes.push_back(BenchEncode(
      "flight", ShuffleRows(GenerateFlightTable(rows, 10, 3), 4)));
  encodes.push_back(BenchEncode(
      "ncvoter",
      ShuffleRows(GenerateNcVoterTable(std::max<int64_t>(rows / 10, 2), 10, 3),
                  4)));
  std::printf("\n%-18s %10s %8s %12s %12s %14s\n", "encode", "rows",
              "columns", "ms/column", "distinct", "dict bytes");
  for (const EncodeResult& e : encodes) {
    std::printf("%-18s %10lld %8d %12.3f %12lld %14lld\n", e.name.c_str(),
                static_cast<long long>(e.rows), e.columns, e.ms_per_column,
                static_cast<long long>(e.distinct),
                static_cast<long long>(e.dictionary_bytes));
  }

  if (json_path != nullptr) {
    FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"micro_partitions\",\n");
    std::fprintf(f, "  \"rows\": %lld,\n", static_cast<long long>(rows));
    std::fprintf(f, "  \"products\": [\n");
    for (size_t i = 0; i < products.size(); ++i) {
      const ProductResult& r = products[i];
      std::fprintf(f,
                   "    {\"case\": \"%s\", \"out_classes\": %lld, "
                   "\"csr_seconds\": %.6f, \"legacy_seconds\": %.6f, "
                   "\"speedup\": %.3f}%s\n",
                   r.name.c_str(), static_cast<long long>(r.out_classes),
                   r.csr_seconds, r.legacy_seconds, r.speedup(),
                   i + 1 < products.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"derivation\": {\"case\": \"%s\", "
                 "\"planner_base\": \"%s\", \"fixed_seconds\": %.6f, "
                 "\"planner_seconds\": %.6f, \"speedup\": %.3f},\n",
                 derivation.name.c_str(),
                 derivation.planner_base.ToString().c_str(),
                 derivation.fixed_seconds, derivation.planner_seconds,
                 derivation.speedup());
    std::fprintf(f, "  \"validations\": [\n");
    for (size_t i = 0; i < validations.size(); ++i) {
      const ValidationResult& v = validations[i];
      std::fprintf(f, "    {\"case\": \"%s\", \"seconds\": %.6f}%s\n",
                   v.name.c_str(), v.seconds,
                   i + 1 < validations.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"encode\": [\n");
    for (size_t i = 0; i < encodes.size(); ++i) {
      const EncodeResult& e = encodes[i];
      std::fprintf(f,
                   "    {\"case\": \"%s\", \"rows\": %lld, \"columns\": %d, "
                   "\"ms_per_column\": %.4f, \"distinct\": %lld, "
                   "\"dictionary_bytes\": %lld}%s\n",
                   e.name.c_str(), static_cast<long long>(e.rows), e.columns,
                   e.ms_per_column, static_cast<long long>(e.distinct),
                   static_cast<long long>(e.dictionary_bytes),
                   i + 1 < encodes.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nJSON written to %s\n", json_path);
  }
  return 0;
}
