// Micro-benchmark of the shard wire encoders and decoders
// (src/shard/wire.{h,cc}).
//
// For each bulky frame type — partition CSR blocks, candidate batches,
// result batches, and the rank-encoded table block — this harness
// measures encode and decode throughput in MiB/s of frame bytes. Every
// frame ships in its one fixed-width layout. Shapes mirror what
// actually crosses the seam in exp8: low-cardinality base partitions,
// derived partitions with more classes, per-level candidate batches,
// and result batches with and without removal rows.
//
// With --json <path> the series is written as machine-readable JSON (CI
// uploads it as BENCH_micro_wire.json).
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "data/encoder.h"
#include "gen/random.h"
#include "partition/attribute_set.h"
#include "partition/stripped_partition.h"
#include "shard/wire.h"

namespace aod {
namespace bench {
namespace {

using shard::DecodedFrame;
using shard::WireCandidate;
using shard::WireOutcome;

struct WireRow {
  std::string frame_type;   // "partition", "candidate", ...
  std::string shape;        // which workload variant
  int64_t bytes = 0;        // one frame, header included
  double encode_mib_s = 0.0;
  double decode_mib_s = 0.0;
};

/// Repeats `fn` until ~80ms of wall clock accumulates and returns the
/// per-iteration seconds — enough samples to flatten scheduler noise
/// without making the full suite slow.
template <typename Fn>
double TimePerIteration(const Fn& fn) {
  int iters = 0;
  Stopwatch sw;
  do {
    fn();
    ++iters;
  } while (sw.ElapsedSeconds() < 0.08);
  return sw.ElapsedSeconds() / iters;
}

/// Throughput in MiB/s of frame bytes moved per second.
double MibPerSecond(int64_t bytes, double seconds_per_iter) {
  if (seconds_per_iter <= 0.0) return 0.0;
  return static_cast<double>(bytes) / (1 << 20) / seconds_per_iter;
}

/// Times `encode` and `decode` (which must succeed on the frame that
/// `encode` produced) for one frame type and shape.
WireRow Measure(const std::string& frame_type, const std::string& shape,
                const std::function<std::vector<uint8_t>()>& encode,
                const std::function<bool(const DecodedFrame&)>& decode) {
  WireRow row;
  row.frame_type = frame_type;
  row.shape = shape;
  const std::vector<uint8_t> frame = encode();
  row.bytes = static_cast<int64_t>(frame.size());
  row.encode_mib_s = MibPerSecond(row.bytes, TimePerIteration([&] {
                                    volatile size_t sink = encode().size();
                                    (void)sink;
                                  }));
  Result<DecodedFrame> decoded = shard::DecodeFrame(frame);
  AOD_CHECK(decoded.ok());
  row.decode_mib_s = MibPerSecond(
      row.bytes, TimePerIteration([&] { AOD_CHECK(decode(*decoded)); }));
  return row;
}

WireRow MeasurePartition(const std::string& shape, const StrippedPartition& p,
                         int64_t rows) {
  const AttributeSet set = AttributeSet::Of({0});
  return Measure(
      "partition", shape, [&] { return shard::EncodePartitionBlock(set, p); },
      [&](const DecodedFrame& f) {
        return shard::DecodePartitionBlock(f, rows).ok();
      });
}

WireRow MeasureCandidates(const std::string& shape,
                          const std::vector<WireCandidate>& batch) {
  return Measure(
      "candidate", shape, [&] { return shard::EncodeCandidateBatch(batch); },
      [](const DecodedFrame& f) {
        return shard::DecodeCandidateBatch(f).ok();
      });
}

WireRow MeasureResults(const std::string& shape,
                       const std::vector<WireOutcome>& outcomes) {
  return Measure(
      "result", shape, [&] { return shard::EncodeResultBatch(outcomes); },
      [](const DecodedFrame& f) { return shard::DecodeResultBatch(f).ok(); });
}

WireRow MeasureTable(const std::string& shape, const EncodedTable& table) {
  return Measure(
      "table", shape, [&] { return shard::EncodeTableBlock(table); },
      [](const DecodedFrame& f) { return shard::DecodeTableBlock(f).ok(); });
}

EncodedTable RandomEncodedTable(int64_t rows, int cols, int64_t cardinality,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int64_t>> columns(static_cast<size_t>(cols));
  std::vector<std::string> names;
  for (int c = 0; c < cols; ++c) {
    names.push_back("c" + std::to_string(c));
    for (int64_t r = 0; r < rows; ++r) {
      columns[static_cast<size_t>(c)].push_back(
          rng.UniformInt(0, cardinality - 1));
    }
  }
  return EncodedTableFromInts(names, columns);
}

std::vector<WireCandidate> MakeCandidates(int64_t n) {
  Rng rng(7);
  std::vector<WireCandidate> out;
  for (int64_t i = 0; i < n; ++i) {
    WireCandidate c;
    c.slot = static_cast<uint64_t>(i);
    c.context_bits = static_cast<uint64_t>(rng.UniformInt(0, 1 << 10));
    // Every kind appears in the measured mix, target and pair shapes
    // alike.
    c.kind = static_cast<DependencyKind>(i % 4);
    if (c.kind == DependencyKind::kOc) {
      c.pair_a = static_cast<int32_t>(i % 9);
      c.pair_b = static_cast<int32_t>(i % 9 + 1);
      c.opposite = (i % 2) == 0;
    } else {
      c.target = static_cast<int32_t>(i % 10);
    }
    out.push_back(c);
  }
  return out;
}

std::vector<WireOutcome> MakeOutcomes(int64_t n, bool removal_rows) {
  Rng rng(11);
  std::vector<WireOutcome> out;
  for (int64_t i = 0; i < n; ++i) {
    WireOutcome o;
    o.slot = static_cast<uint64_t>(i);
    o.kind = static_cast<DependencyKind>(i % 4);
    o.valid = (i % 2) == 0;
    o.early_exit = (i % 5) == 0;
    o.removal_size = rng.UniformInt(0, 200);
    o.approx_factor = 0.01 * static_cast<double>(rng.UniformInt(0, 10));
    o.interestingness = 1.0 / (1.0 + static_cast<double>(i));
    o.seconds = 1e-6;
    if (removal_rows) {
      int32_t row = 0;
      for (int r = 0; r < 12; ++r) {
        row += static_cast<int32_t>(rng.UniformInt(1, 30));
        o.removal_rows.push_back(row);
      }
    }
    out.push_back(o);
  }
  return out;
}

int WriteJson(const char* path, const std::vector<WireRow>& rows) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_wire\",\n");
  std::fprintf(f, "  \"scale\": %.4f,\n  \"rows\": [\n", Scale());
  for (size_t i = 0; i < rows.size(); ++i) {
    const WireRow& r = rows[i];
    std::fprintf(f,
                 "    {\"frame_type\": \"%s\", \"shape\": \"%s\", "
                 "\"bytes\": %lld, \"encode_mib_s\": %.2f, "
                 "\"decode_mib_s\": %.2f}%s\n",
                 r.frame_type.c_str(), r.shape.c_str(),
                 static_cast<long long>(r.bytes), r.encode_mib_s,
                 r.decode_mib_s, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nJSON written to %s\n", path);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace aod

int main(int argc, char** argv) {
  using namespace aod::bench;
  using aod::EncodedTable;
  using aod::PartitionScratch;
  using aod::StrippedPartition;

  const char* json_path = JsonPathArg(argc, argv);
  PrintHeaderLine("micro_wire: shard wire encode/decode throughput");
  const int64_t rows = ScaledRows(100000);
  std::printf("scale=%.2f (%lld-row shapes)\n", Scale(),
              static_cast<long long>(rows));

  // Workload shapes. Base: one low-cardinality column partition (what
  // Init ships to every shard). Derived: a two-column product (more,
  // smaller classes — what budgeted re-derivation re-ships). Level
  // batch: ~2000 near-sequential candidates; result batches of 512
  // outcomes.
  EncodedTable base_table = RandomEncodedTable(rows, 2, 16, 42);
  StrippedPartition base =
      StrippedPartition::FromColumn(base_table.column(0));
  PartitionScratch scratch(rows);
  StrippedPartition derived =
      base.Product(StrippedPartition::FromColumn(base_table.column(1)), rows,
                   &scratch);
  EncodedTable wide_table = RandomEncodedTable(rows / 10 + 1, 10, 300, 99);

  const std::vector<WireRow> all = {
      MeasurePartition("base_card16", base, rows),
      MeasurePartition("derived_product", derived, rows),
      MeasureCandidates("level_batch_2k", MakeCandidates(2000)),
      MeasureResults("result_512", MakeOutcomes(512, false)),
      MeasureResults("result_512_removal", MakeOutcomes(512, true)),
      MeasureTable("table_10col_card300", wide_table),
  };

  std::printf("%10s %20s %12s %12s %12s\n", "frame", "shape", "KiB",
              "enc MiB/s", "dec MiB/s");
  for (const WireRow& r : all) {
    std::printf("%10s %20s %12.1f %12.1f %12.1f\n", r.frame_type.c_str(),
                r.shape.c_str(), static_cast<double>(r.bytes) / 1024,
                r.encode_mib_s, r.decode_mib_s);
  }

  if (json_path != nullptr) return WriteJson(json_path, all);
  return 0;
}
