// The batch workloads (aod_ncvoter, fd_flight, sharded_socket): one
// table, one DiscoverOds call per op, each op in its own forked child.
#include <malloc.h>
#include <unistd.h>

#include <cstdio>

#include "bench.h"
#include "isolate.h"

namespace perfbench {
namespace {

struct OpResult {
  bool parsed = false;
  double wall_s = 0.0;
  bool timed_out = false;
  bool cancelled = false;
  std::string shard_status;
  StatMap stats;
  std::vector<DepRecord> deps;
};

}  // namespace

Report RunBatch(const WorkloadSpec& spec, const Args& args, Tracer* tracer) {
  Report report;
  const uint64_t world = spec.flight ? 42 : 1729;

  // Set-up, repeated; only the last table is kept.
  std::vector<double> setup_s, encode_s;
  aod::EncodedTable table;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    table = aod::EncodedTable();
    ScopedSpan span(tracer, "bench.setup");
    SetupTiming t;
    table = MakeTable(spec.flight, spec.rows, world, args.seed, tracer,
                      span.id(), &t);
    setup_s.push_back(t.generate_s + t.encode_s);
    encode_s.push_back(t.encode_s);
  }
  // Hand the freed raw tables back to the OS, so that the forked
  // children do not carry them in their resident set.
  malloc_trim(0);

  // Serial, unsharded reference, re-validated outside the library cache.
  std::vector<DepRecord> reference;
  bool have_reference = false;
  double reference_s = 0.0;
  {
    ScopedSpan span(tracer, "bench.reference");
    const double start = NowS();
    const ChildExit ce = RunChild(
        [&](MessageSink* sink) {
          ByteWriter w;
          EncodeRecords(RecordsOf(aod::DiscoverOds(table, SerialOptions(spec.kinds))),
                        &w);
          sink->Send(w.bytes());
        },
        [&](const std::string& m) {
          ByteReader r(m);
          reference = DecodeRecords(&r);
          have_reference = r.ok();
        },
        [&] { return NowS() - start > kReferenceDeadlineS; });
    std::string why;
    reference_s = ce.elapsed_s;
    if (!ce.clean || !have_reference) {
      why = "reference run failed: " + ce.detail;
      have_reference = false;
    } else if (Recheck(table, reference, kEpsilon, kAfdError, &why) == 0) {
      why.clear();
    }
    if (!why.empty()) {
      std::printf("CHECK FAILED workload=%s seed=%llu %s\n", spec.name.c_str(),
                  static_cast<unsigned long long>(args.seed), why.c_str());
      report.correct = false;
    }
  }

  const double deadline =
      args.deadline_s > 0 ? args.deadline_s
                          : std::max(spec.min_deadline_s, spec.deadline_factor * reference_s);
  aod::DiscoveryOptions options = SerialOptions(spec.kinds);
  options.num_threads = spec.threads;
  options.partition_memory_budget_bytes = spec.budget_bytes;
  options.num_shards = spec.shards;
  if (spec.shards > 0) options.shard_transport = aod::ShardTransport::kSocket;

  std::vector<double> discover_s, traced_s, untraced_s;
  std::vector<StatMap> op_stats;
  double peak_rss_mib = 0.0;
  const double t_start = NowS();
  for (int64_t op = 0; op < 3 || NowS() - t_start < args.seconds; ++op) {
    // In the traced run every other op records spans, so the untraced
    // ops in between give the tracing overhead.
    const bool traced = tracer->enabled() && op % 2 == 1;
    const int64_t op_span = traced ? tracer->Begin("bench.op", 0, op) : 0;
    OpResult got;
    const double op_start = NowS();
    const ChildExit ce = RunChild(
        [&](MessageSink* sink) {
          if (op == args.sleep_op) {
            ::sleep(static_cast<unsigned>(deadline) + 5);
          }
          Tracer child(traced, kChildFirstId);
          const int64_t span = child.Begin("od.discover", op_span, op, 1);
          const double a = NowS();
          const aod::DiscoveryResult r = aod::DiscoverOds(table, options);
          const double wall = NowS() - a;
          const StatMap stats = StatsOf(r.stats);
          for (const auto& [k, v] : stats) child.Arg(span, k, v);
          child.End(span);
          ByteWriter w;
          w.F64(wall);
          w.U8(r.timed_out ? 1 : 0);
          w.U8(r.cancelled ? 1 : 0);
          w.Str(r.shard_status.ok() ? "" : r.shard_status.ToString());
          EncodeStats(stats, &w);
          EncodeRecords(RecordsOf(r), &w);
          child.Encode(&w);
          sink->Send(w.bytes());
        },
        [&](const std::string& m) {
          ByteReader r(m);
          got.wall_s = r.F64();
          got.timed_out = r.U8() != 0;
          got.cancelled = r.U8() != 0;
          got.shard_status = r.Str();
          got.stats = DecodeStats(&r);
          got.deps = DecodeRecords(&r);
          got.parsed = tracer->Adopt(&r) && r.ok();
        },
        [&] { return NowS() - op_start > deadline; }, kIdleStallS);
    tracer->End(op_span);
    peak_rss_mib = std::max(peak_rss_mib, ce.max_rss_mib);
    ++report.attempted;

    std::string reason;
    if (ce.killed) {
      reason = "stalled: " + ce.detail;
    } else if (!ce.clean || !got.parsed) {
      reason = "crashed: " + ce.detail;
    } else if (got.timed_out || got.cancelled || !got.shard_status.empty()) {
      reason = "refused: timed_out=" + std::to_string(got.timed_out) +
               " cancelled=" + std::to_string(got.cancelled) + " shard_status=" +
               got.shard_status;
    } else if (have_reference) {
      if (op == args.tamper_op) {
        if (got.deps.empty()) got.deps.emplace_back();
        got.deps.front().removal_size += 1;
      }
      const std::string diff = DescribeMismatch(got.deps, reference);
      if (!diff.empty()) {
        reason = "output mismatch: " + diff;
        report.correct = false;
      }
    }
    if (!reason.empty()) {
      ++report.failed;
      PrintOpFailure(spec.name, op, args.seed, ce.elapsed_s, reason);
      continue;
    }
    discover_s.push_back(got.wall_s);
    op_stats.push_back(std::move(got.stats));
    (traced ? traced_s : untraced_s).push_back(got.wall_s);
  }
  const double ok = static_cast<double>(report.attempted - report.failed);
  std::printf("%s: %lld ops, %lld failed, deadline %.1f s, %zu dependencies, "
              "fingerprint %016llx\n",
              spec.name.c_str(), static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed), deadline, reference.size(),
              static_cast<unsigned long long>(Fingerprint(reference)));

  report.e2e = {
      {"setup_s", Median(setup_s), "s"},
      {"discovery_s_p50", Median(discover_s), "s"},
      {"ops_ok_ratio", ok / static_cast<double>(report.attempted), "ratio"},
      {"peak_rss_mib", peak_rss_mib, "MiB"},
  };
  if (tracer->enabled()) {
    report.layer.push_back({"data.encode_s", Median(encode_s), "s"});
    AddStatsLayerMetrics(op_stats, &report);
    ReplayLayers(table, spec.kinds, tracer, &report);
    report.layer.push_back(
        {"trace.overhead_s", Median(traced_s) - Median(untraced_s), "s"});
  }
  return report;
}

}  // namespace perfbench
