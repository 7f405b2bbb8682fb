// Workload definitions, input generation and the stats-derived layer
// metrics shared by the batch and serve runners.
#include <cstdio>
#include <functional>
#include <numeric>

#include "bench.h"
#include "gen/flight_generator.h"
#include "gen/ncvoter_generator.h"

namespace perfbench {
namespace {

aod::DependencyKindSet Kinds(const char* spec) {
  return aod::DependencyKindSet::Parse(spec).value();
}

int64_t Scaled(int64_t v, double scale) {
  return std::max<int64_t>(500, static_cast<int64_t>(v * scale));
}

/// Copies `in` with its rows in a seed-drawn order. The multiset of
/// tuples, and so the set of dependencies, does not change; the layout
/// every partition and validator walks does.
aod::Table ShuffleRows(const aod::Table& in, uint64_t seed) {
  const int64_t n = in.num_rows();
  std::vector<int64_t> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  uint64_t state = seed;
  for (int64_t i = n - 1; i > 0; --i) {
    state = SplitMix64(state);
    std::swap(perm[static_cast<size_t>(i)],
              perm[static_cast<size_t>(state % static_cast<uint64_t>(i + 1))]);
  }
  aod::Table out(in.schema());
  std::vector<aod::Value> row(static_cast<size_t>(in.num_columns()));
  for (int64_t r : perm) {
    for (int c = 0; c < in.num_columns(); ++c) {
      row[static_cast<size_t>(c)] = in.GetValue(r, c);
    }
    out.AppendRow(row);
  }
  return out;
}

}  // namespace

std::vector<WorkloadSpec> AllWorkloads(double scale) {
  std::vector<WorkloadSpec> out;
  WorkloadSpec aod_ncvoter;
  aod_ncvoter.name = "aod_ncvoter";
  aod_ncvoter.rows = Scaled(100000, scale);
  aod_ncvoter.kinds = Kinds("oc,ofd");
  aod_ncvoter.threads = 1;
  out.push_back(aod_ncvoter);

  WorkloadSpec fd_flight;
  fd_flight.name = "fd_flight";
  fd_flight.flight = true;
  fd_flight.rows = Scaled(1000000, scale);
  fd_flight.kinds = Kinds("fd,afd");
  fd_flight.threads = 4;
  fd_flight.budget_bytes = static_cast<int64_t>((64LL << 20) * scale);
  out.push_back(fd_flight);

  WorkloadSpec serve_mixed;
  serve_mixed.name = "serve_mixed";
  serve_mixed.serve = true;
  serve_mixed.rows = Scaled(20000, scale);
  serve_mixed.threads = 2;
  serve_mixed.deadline_factor = 5.0;
  serve_mixed.min_deadline_s = 2.0;
  out.push_back(serve_mixed);

  WorkloadSpec sharded;
  sharded.name = "sharded_socket";
  sharded.rows = Scaled(100000, scale);
  sharded.kinds = Kinds("oc,ofd");
  sharded.threads = 2;
  sharded.shards = 2;
  out.push_back(sharded);
  return out;
}

aod::DiscoveryOptions SerialOptions(aod::DependencyKindSet kinds) {
  aod::DiscoveryOptions o;
  o.kinds = kinds;
  o.epsilon = kEpsilon;
  o.afd_error = kAfdError;
  o.validator = aod::ValidatorKind::kOptimal;
  o.num_threads = 1;
  return o;
}

aod::EncodedTable MakeTable(bool flight, int64_t rows, uint64_t world,
                            uint64_t seed, Tracer* tracer, int64_t parent,
                            SetupTiming* timing) {
  const double t0 = NowS();
  int64_t span = tracer->Begin("bench.generate", parent);
  aod::Table shuffled = [&] {
    aod::Table raw = flight ? aod::GenerateFlightTable(rows, 10, world)
                            : aod::GenerateNcVoterTable(rows, 10, world);
    return ShuffleRows(raw, SplitMix64(seed ^ world));
  }();
  tracer->End(span);
  const double t1 = NowS();
  span = tracer->Begin("data.encode", parent);
  aod::EncodedTable encoded = aod::EncodeTable(shuffled);
  tracer->End(span);
  timing->generate_s += t1 - t0;
  timing->encode_s += NowS() - t1;
  return encoded;
}

StatMap StatsOf(const aod::DiscoveryStats& s) {
  auto d = [](int64_t v) { return static_cast<double>(v); };
  return {
      {"total_s", s.total_seconds},
      {"oc_cpu_s", s.oc_validation_seconds},
      {"ofd_cpu_s", s.ofd_validation_seconds},
      {"fd_cpu_s", s.fd_validation_seconds},
      {"afd_cpu_s", s.afd_validation_seconds},
      {"partition_cpu_s", s.partition_seconds},
      {"candidate_wall_s", s.candidate_wall_seconds},
      {"validation_wall_s", s.validation_wall_seconds},
      {"partition_wall_s", s.partition_wall_seconds},
      {"merge_wall_s", s.merge_wall_seconds},
      {"threads", d(s.threads_used)},
      {"shards", d(s.shards_used)},
      {"bytes_wire", d(s.shard_bytes_wire)},
      {"bytes_raw", d(s.shard_bytes_raw)},
      {"retries", d(s.shard_retries)},
      {"respawns", d(s.shard_respawns)},
      {"bytes_peak", d(s.partition_bytes_peak)},
      {"bytes_evicted", d(s.partition_bytes_evicted)},
      {"planner_rows_realized", d(s.planner_cost_realized)},
      {"evictions", d(s.partitions_evicted)},
      {"oc_candidates", d(s.oc_candidates_validated)},
      {"ofd_candidates", d(s.ofd_candidates_validated)},
      {"fd_candidates", d(s.fd_candidates_validated)},
      {"afd_candidates", d(s.afd_candidates_validated)},
      {"oc_pruned", d(s.oc_candidates_pruned)},
      {"nodes", d(s.nodes_processed)},
      {"products", d(s.partitions_computed)},
      {"ocs", d(s.TotalOcs())},
  };
}

void EncodeStats(const StatMap& stats, ByteWriter* w) {
  w->U64(stats.size());
  for (const auto& [k, v] : stats) {
    w->Str(k);
    w->F64(v);
  }
}

StatMap DecodeStats(ByteReader* r) {
  StatMap out;
  const uint64_t n = r->U64();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    std::string k = r->Str();
    out[k] = r->F64();
  }
  return out;
}

void AddStatsLayerMetrics(const std::vector<StatMap>& ops, Report* report) {
  auto at = [](const StatMap& m, const char* k) {
    auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  constexpr double kMiB = 1024.0 * 1024.0;
  struct Row {
    const char* name;
    const char* unit;
    std::function<double(const StatMap&)> fn;
  };
  auto field = [&](const char* k, double div = 1.0) {
    return [at, k, div](const StatMap& m) { return at(m, k) / div; };
  };
  auto cpu_sum = [at](const StatMap& m) {
    return at(m, "oc_cpu_s") + at(m, "ofd_cpu_s") + at(m, "fd_cpu_s") +
           at(m, "afd_cpu_s") + at(m, "partition_cpu_s");
  };
  const std::vector<Row> rows = {
      {"partition.products", "count", field("products")},
      {"partition.cpu_s", "s", field("partition_cpu_s")},
      {"partition.sync_wall_s", "s", field("partition_wall_s")},
      {"partition.planner_rows_realized", "count",
       field("planner_rows_realized")},
      {"partition.evictions", "count", field("evictions")},
      {"partition.evicted_mib", "MiB", field("bytes_evicted", kMiB)},
      {"partition.bytes_peak_mib", "MiB", field("bytes_peak", kMiB)},
      {"od.aoc.candidates", "count", field("oc_candidates")},
      {"od.aoc.cpu_s", "s", field("oc_cpu_s")},
      {"od.aoc.us_per_candidate", "us",
       [&](const StatMap& m) {
         return ratio(at(m, "oc_cpu_s") * 1e6, at(m, "oc_candidates"));
       }},
      {"od.aoc.valid_ratio", "ratio",
       [&](const StatMap& m) { return ratio(at(m, "ocs"), at(m, "oc_candidates")); }},
      {"od.aoc.cpu_share", "ratio",
       [&](const StatMap& m) { return ratio(at(m, "oc_cpu_s"), cpu_sum(m)); }},
      {"od.ofd.candidates", "count", field("ofd_candidates")},
      {"od.ofd.cpu_s", "s", field("ofd_cpu_s")},
      {"od.fd.candidates", "count", field("fd_candidates")},
      {"od.fd.cpu_s", "s", field("fd_cpu_s")},
      {"od.afd.candidates", "count", field("afd_candidates")},
      {"od.afd.cpu_s", "s", field("afd_cpu_s")},
      {"od.afd.us_per_candidate", "us",
       [&](const StatMap& m) {
         return ratio(at(m, "afd_cpu_s") * 1e6, at(m, "afd_candidates"));
       }},
      {"od.validation_wall_s", "s", field("validation_wall_s")},
      {"od.merge_wall_s", "s", field("merge_wall_s")},
      {"od.candidate_wall_s", "s", field("candidate_wall_s")},
      {"od.nodes", "count", field("nodes")},
      {"od.oc_pruned", "count", field("oc_pruned")},
      {"exec.busy_ratio", "ratio",
       [&](const StatMap& m) {
         return ratio(cpu_sum(m), at(m, "total_s") * at(m, "threads"));
       }},
      {"shard.bytes_wire_mib", "MiB", field("bytes_wire", kMiB)},
      {"shard.bytes_raw_mib", "MiB", field("bytes_raw", kMiB)},
      {"shard.compression_ratio", "ratio",
       [&](const StatMap& m) { return ratio(at(m, "bytes_raw"), at(m, "bytes_wire")); }},
      {"shard.merge_wall_s", "s",
       [&](const StatMap& m) {
         return at(m, "shards") > 0 ? at(m, "merge_wall_s") : 0.0;
       }},
      {"shard.retries", "count", field("retries")},
      {"shard.respawns", "count", field("respawns")},
  };
  for (const Row& row : rows) {
    std::vector<double> values;
    for (const StatMap& m : ops) values.push_back(row.fn(m));
    report->layer.push_back({row.name, Median(values), row.unit});
  }
}

void PrintOpFailure(const std::string& workload, int64_t op, uint64_t seed,
                    double elapsed_s, const std::string& reason) {
  std::printf("OP FAILED workload=%s op=%lld seed=%llu elapsed=%.3fs reason=%s\n",
              workload.c_str(), static_cast<long long>(op),
              static_cast<unsigned long long>(seed), elapsed_s, reason.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
