// One logical shard of the sharded discovery subsystem.
//
// A ShardRunner owns a *wire-seeded* partition cache: its base (level-1)
// partitions arrive as kPartitionBlock frames from the coordinator, not
// from the table, and larger context partitions are derived shard-locally
// by the cache's cost-based planner, whose catalog the runner updates
// only between batches. Each kCandidateBatch frame it receives is
// validated (in parallel on the shared pool, cooperatively cancellable)
// and answered with one kResultBatch frame carrying exact bit patterns
// of every outcome field.
//
// Runners share the EncodedTable by pointer — rank columns are immutable
// — while everything candidate- or partition-shaped crosses the channel
// as bytes.
//
// Determinism: a runner's outcomes are pure functions of (table, batch,
// shipped base partitions) — canonical partition values make the derived
// contexts byte-identical to any other derivation site, validators are
// pure, and the per-run sampler is seeded — so the coordinator's merged
// output is bit-identical to an unsharded run (see ARCHITECTURE.md).
#ifndef AOD_SHARD_SHARD_RUNNER_H_
#define AOD_SHARD_SHARD_RUNNER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "data/encoder.h"
#include "od/dependency_kind.h"
#include "od/discovery.h"
#include "od/validator_registry.h"
#include "partition/partition_cache.h"
#include "shard/channel.h"
#include "shard/wire.h"

namespace aod {

namespace exec {
class ThreadPool;
}  // namespace exec

namespace shard {

/// The validation configuration a runner needs — the shard-relevant
/// subset of DiscoveryOptions, fixed for the lifetime of the run.
struct ShardRunnerOptions {
  ValidatorKind validator = ValidatorKind::kOptimal;
  /// Which supervised (re)establishment this runner serves: 1 for the
  /// first attempt, bumped by the supervisor on every respawn. Echoed in
  /// the stats footer so the coordinator can reject a superseded
  /// attempt's footer. Validation outcomes never depend on it.
  uint32_t attempt_id = 0;
  /// Raw threshold; CandidateValidator zeroes it for the exact
  /// validator, as it does for the discovery driver.
  double epsilon = 0.1;
  /// Dependency kinds this run may ship to the shard. The runner rejects
  /// whole batches carrying any candidate outside the set — a kind the
  /// coordinator never enabled is a protocol violation, not a skip.
  DependencyKindSet kinds = DependencyKindSet::OdDefault();
  /// Maximum g1 error for kAfd candidates (DiscoveryOptions::afd_error).
  double afd_error = 0.05;
  bool collect_removal_sets = false;
  bool enable_sampling_filter = false;
  SamplerConfig sampler_config;
  /// Partition byte budget *per shard*, enforced on the runner's cache
  /// after every batch (0 = unlimited).
  int64_t partition_memory_budget_bytes = 0;
};

class ShardRunner {
 public:
  /// `inbox`/`outbox` are borrowed and must outlive the runner; `pool`
  /// may be nullptr for serial execution.
  ShardRunner(int shard_id, const EncodedTable* table,
              const ShardRunnerOptions& options, ShardChannel* inbox,
              ShardChannel* outbox, exec::ThreadPool* pool);

  /// Receives one frame from the inbox and handles it:
  ///   kPartitionBlock  — decode (canonical-validated) and install into
  ///                      the local cache;
  ///   kCandidateBatch  — validate every candidate (parallel over the
  ///                      batch, `cancel` polled between candidates),
  ///                      send the completed outcomes back as one
  ///                      kResultBatch frame, then enforce the per-shard
  ///                      budget;
  ///   kShutdown        — reply with the kStatsFooter terminal frame;
  ///                      the conversation is over.
  /// Any decode or channel failure surfaces as a non-OK Status. The
  /// supervisor calls this once per frame it ships, which keeps the
  /// one-frame-per-level cadence.
  Status ServeOne(const std::function<bool()>& cancel = {});

  /// Wall time this runner spent deriving context partitions (the
  /// shard-side analogue of the driver's partition_seconds). Counted
  /// only when the requesting candidate found its context unresolved, so
  /// cache hits cost nothing; a waiter racing the computing thread may
  /// double-count the tail of a derivation — like every timing stat,
  /// this is outside the determinism contract.
  double partition_seconds() const;

  /// The counters this shard reports in its terminal kStatsFooter frame
  /// (see wire.h); pure functions of the served batches except for the
  /// timing field.
  ShardStatsFooter FooterStats() const;

 private:
  Status HandlePartitionBlock(const DecodedFrame& frame);
  Status HandleCandidateBatch(const DecodedFrame& frame,
                              const std::function<bool()>& cancel);
  Status HandleShutdown();
  void SampleResidency();
  /// One validation through the same CandidateValidator unit the
  /// discovery driver uses, so sharded and unsharded outcomes are
  /// bit-identical.
  void ValidateOne(const WireCandidate& candidate, WireOutcome* out);

  const int shard_id_;
  const EncodedTable* table_;
  const ShardRunnerOptions options_;
  ShardChannel* inbox_;
  ShardChannel* outbox_;
  exec::ThreadPool* pool_;
  PartitionCache cache_;
  CandidateValidator validator_;
  int64_t bytes_evicted_ = 0;
  /// Residency high-water mark, sampled after every installed base and
  /// every served batch (quiescent points, so the sample is exact).
  int64_t bytes_peak_ = 0;
  int64_t frames_served_ = 0;
  std::atomic<int64_t> partition_nanos_{0};
};

}  // namespace shard
}  // namespace aod

#endif  // AOD_SHARD_SHARD_RUNNER_H_
