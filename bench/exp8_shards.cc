// Exp-8 (this repo, beyond the paper): sharded discovery over the CSR
// wire format.
//
// The sharding subsystem (src/shard/) splits each level's candidate
// space across N in-process shard runners; base partitions ship out and
// validation results ship back in the versioned, checksummed wire
// format, and the deterministic key-ordered merge reduces the shard
// outputs. This harness measures AOD (optimal) discovery wall clock for
// num_shards ∈ {1, 2, 4, 8} against the unsharded baseline on generated
// flight/ncvoter data, reports the wire volume (bytes shipped per run),
// and cross-checks the determinism contract (identical dependency counts
// at every shard count).
//
// Each shard count runs over two transports: the in-process queue makes
// the wire overhead — serialization, checksumming, per-batch framing —
// directly observable without network noise (the gap between the
// unsharded and 1-shard inproc lines is exactly the price of the seam),
// and the localhost TCP socket adds the kernel byte-stream on top (the
// inproc-vs-socket gap is the price of going off-box before any real
// network latency). With --json <path> the series is written as
// machine-readable JSON (CI uploads it as BENCH_exp8.json).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/encoder.h"
#include "exec/thread_pool.h"
#include "gen/flight_generator.h"
#include "gen/ncvoter_generator.h"

namespace aod {
namespace bench {
namespace {

constexpr int kShardCounts[] = {0, 1, 2, 4, 8};  // 0 = unsharded baseline
constexpr ShardTransport kTransports[] = {ShardTransport::kInProcess,
                                          ShardTransport::kSocket};

struct ShardPoint {
  int shards = 0;
  ShardTransport transport = ShardTransport::kInProcess;
  RunResult run;
};

struct DatasetSeries {
  std::string name;
  int64_t rows = 0;
  std::vector<ShardPoint> points;
  /// Points whose counts diverged from the unsharded baseline or whose
  /// shard_status was not OK.
  int violations = 0;
};

DatasetSeries RunDataset(const char* name, bool flight, int64_t base_rows,
                         exec::ThreadPool* pool) {
  DatasetSeries series;
  series.name = name;
  series.rows = ScaledRows(base_rows);
  std::printf("\n--- %s (%lld rows, 10 attributes, eps = 10%%, %d worker"
              " threads) ---\n",
              name, static_cast<long long>(series.rows), pool->num_workers());
  Table t = flight ? GenerateFlightTable(series.rows, 10, 42)
                   : GenerateNcVoterTable(series.rows, 10, 1729);
  EncodedTable enc = EncodeTable(t);

  std::printf("%16s %12s %9s %8s %8s %11s %12s\n", "shards/transport",
              "wall(s)", "vs base", "#AOC", "#AOFD", "wire(MiB)",
              "merge.wall");
  double baseline = 0.0;
  int64_t baseline_ocs = -1;
  int64_t baseline_ofds = -1;
  for (int shards : kShardCounts) {
    for (ShardTransport transport : kTransports) {
      if (shards == 0 && transport != ShardTransport::kInProcess) {
        continue;  // the unsharded baseline has no transport dimension
      }
      DiscoveryOptions options;
      options.validator = ValidatorKind::kOptimal;
      options.epsilon = 0.10;
      options.pool = pool;
      options.num_shards = shards;
      options.shard_transport = transport;
      ShardPoint point;
      point.shards = shards;
      point.transport = transport;
      point.run = RunDiscoveryWithOptions(enc, options);
      if (shards == 0) {
        baseline = point.run.seconds;
        baseline_ocs = point.run.ocs;
        baseline_ofds = point.run.ofds;
      }
      const bool deterministic = point.run.ocs == baseline_ocs &&
                                 point.run.ofds == baseline_ofds &&
                                 point.run.full.shard_status.ok();
      if (!deterministic) ++series.violations;
      char label[28];
      if (shards == 0) {
        std::snprintf(label, sizeof(label), "unsharded");
      } else {
        std::snprintf(label, sizeof(label), "%d/%s", shards,
                      ShardTransportToString(transport));
      }
      std::printf(
          "%16s %12.3f %8.2fx %8lld %8lld %11.2f %12.3f%s\n", label,
          point.run.seconds,
          point.run.seconds > 0 ? baseline / point.run.seconds : 0.0,
          static_cast<long long>(point.run.ocs),
          static_cast<long long>(point.run.ofds),
          static_cast<double>(point.run.full.stats.shard_bytes_wire) /
              (1 << 20),
          point.run.full.stats.merge_wall_seconds,
          deterministic ? "" : "  <-- DETERMINISM VIOLATION");
      series.points.push_back(std::move(point));
    }
  }
  return series;
}

int WriteJson(const char* path, const std::vector<DatasetSeries>& all,
              int threads) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"exp8_shards\",\n");
  std::fprintf(f, "  \"scale\": %.4f,\n  \"threads\": %d,\n", Scale(),
               threads);
  std::fprintf(f, "  \"datasets\": [\n");
  for (size_t d = 0; d < all.size(); ++d) {
    const DatasetSeries& series = all[d];
    std::fprintf(f, "    {\"name\": \"%s\", \"rows\": %lld, \"points\": [\n",
                 series.name.c_str(), static_cast<long long>(series.rows));
    for (size_t i = 0; i < series.points.size(); ++i) {
      const ShardPoint& p = series.points[i];
      std::fprintf(
          f,
          "      {\"shards\": %d, \"transport\": \"%s\", "
          "\"seconds\": %.6f, \"ocs\": %lld, \"ofds\": %lld, "
          "\"bytes_wire\": %lld, \"merge_wall_seconds\": %.6f, "
          "\"frame_bytes\": [",
          p.shards, ShardTransportToString(p.transport), p.run.seconds,
          static_cast<long long>(p.run.ocs),
          static_cast<long long>(p.run.ofds),
          static_cast<long long>(p.run.full.stats.shard_bytes_wire),
          p.run.full.stats.merge_wall_seconds);
      const auto& frame_bytes = p.run.full.stats.shard_frame_bytes;
      for (size_t j = 0; j < frame_bytes.size(); ++j) {
        std::fprintf(f, "{\"type\": \"%s\", \"bytes\": %lld}%s",
                     frame_bytes[j].frame_type.c_str(),
                     static_cast<long long>(frame_bytes[j].bytes),
                     j + 1 < frame_bytes.size() ? ", " : "");
      }
      std::fprintf(f, "]}%s\n", i + 1 < series.points.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", d + 1 < all.size() ? "," : "");
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
  const char* json_path = JsonPathArg(argc, argv);
  PrintHeaderLine("Exp-8: sharded discovery over the CSR wire format");
  const int threads = aod::exec::ThreadPool::HardwareConcurrency();
  std::printf("scale=%.2f (default: 100K rows), hw=%d hardware threads\n",
              Scale(), threads);
  PrintNote("all shard counts run on one shared pool; counts must match the"
            " unsharded baseline at every shard count and transport"
            " (determinism contract). wire(MiB) is total frame bytes both"
            " directions. The inproc-vs-socket gap is the byte-stream cost"
            " of going off-box.");

  aod::exec::ThreadPool pool(threads);
  std::vector<DatasetSeries> all;
  all.push_back(RunDataset("flight", /*flight=*/true, 100000, &pool));
  all.push_back(RunDataset("ncvoter", /*flight=*/false, 100000, &pool));
  if (json_path != nullptr && WriteJson(json_path, all, threads) != 0) {
    return 1;
  }
  int violations = 0;
  for (const DatasetSeries& series : all) violations += series.violations;
  if (violations > 0) {
    std::fprintf(stderr, "exp8: %d determinism violation(s)\n", violations);
    return 1;
  }
  return 0;
}
