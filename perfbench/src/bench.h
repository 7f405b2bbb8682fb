// Shared declarations of the benchmark program: workload specs, the
// per-run report, and the runners for the batch and serve workloads.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check.h"
#include "data/encoder.h"
#include "od/dependency_kind.h"
#include "od/discovery.h"
#include "trace.h"

namespace perfbench {

/// Command-line settings of one benchmark invocation.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  /// Multiplies every row count and the memory budget (self-tests).
  double scale = 1.0;
  /// Per-op deadline override (0 = the workload's own).
  double deadline_s = 0.0;
  /// Self-test seams: op `sleep_op` sleeps past its deadline before it
  /// starts; op `tamper_op` has its received dependency list altered.
  int64_t sleep_op = -1;
  int64_t tamper_op = -1;
};

/// Trace files of the traced run go here, relative to the working
/// directory (the root of the checkout).
inline constexpr const char* kTraceDir = ".bench_out";

struct WorkloadSpec {
  std::string name;
  bool serve = false;
  /// Batch workloads: the dataset shape and DiscoverOds settings.
  bool flight = false;
  int64_t rows = 0;
  aod::DependencyKindSet kinds;
  int threads = 1;
  int64_t budget_bytes = 0;
  int shards = 0;
  /// An op past max(min_deadline_s, deadline_factor x the serial
  /// reference time of one op) is killed and failed. Relative to the
  /// reference so that a slower machine does not turn slow ops into
  /// false stalls.
  double deadline_factor = 3.0;
  double min_deadline_s = 5.0;
};

/// The four workloads, with row counts and budget scaled by `scale`.
std::vector<WorkloadSpec> AllWorkloads(double scale);

inline constexpr double kEpsilon = 0.10;
inline constexpr double kAfdError = 0.05;
/// Set-up (generate + encode, plus server start for serve) is repeated
/// this many times per run and reported as the median.
inline constexpr int kSetupReps = 3;
/// An op child whose CPU time stands still this long is stalled.
inline constexpr double kIdleStallS = 1.0;
/// The serial reference run gets a fixed, generous deadline.
inline constexpr double kReferenceDeadlineS = 60.0;
/// Ids of spans recorded in a forked child start here, far above the
/// parent's (Tracer::Adopt remaps them anyway).
inline constexpr int64_t kChildFirstId = int64_t{1} << 40;
/// Depth of the layer replay's unpruned lattice walk.
inline constexpr int kReplayMaxLevel = 3;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
};

/// Named numeric DiscoveryStats fields of one op.
using StatMap = std::map<std::string, double>;
StatMap StatsOf(const aod::DiscoveryStats& stats);
void EncodeStats(const StatMap& stats, ByteWriter* w);
StatMap DecodeStats(ByteReader* r);
/// Adds the stats-derived per-layer metrics: the median over `ops` of
/// each op's value.
void AddStatsLayerMetrics(const std::vector<StatMap>& ops, Report* report);

/// Serial, unsharded DiscoverOds options of the benchmark (epsilon 0.10,
/// optimal AOC validator): the reference configuration, and the base the
/// workloads add threads, shards and budgets to.
aod::DiscoveryOptions SerialOptions(aod::DependencyKindSet kinds);

/// A rank-encoded input table: generated by the library generator for a
/// fixed "world" (which dependencies exist), rows shuffled by the run's
/// seed, then encoded.
struct SetupTiming {
  double generate_s = 0.0;
  double encode_s = 0.0;
};
aod::EncodedTable MakeTable(bool flight, int64_t rows, uint64_t world,
                            uint64_t seed, Tracer* tracer, int64_t parent,
                            SetupTiming* timing);

/// Walks the unpruned lattice to kReplayMaxLevel calling the partition,
/// validator and wire functions directly, and adds the per-call layer
/// metrics (from_column_s, product_us_per_call, early-exit ratio, codec
/// throughput). Only run in the traced run.
void ReplayLayers(const aod::EncodedTable& table, aod::DependencyKindSet kinds,
                  Tracer* tracer, Report* report);

/// Prints the one-line stall / failure diagnostic.
void PrintOpFailure(const std::string& workload, int64_t op, uint64_t seed,
                    double elapsed_s, const std::string& reason);

Report RunBatch(const WorkloadSpec& spec, const Args& args, Tracer* tracer);
Report RunServe(const WorkloadSpec& spec, const Args& args, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
