// Coordinator of sharded candidate validation (ROADMAP: distributed
// discovery in the spirit of Saxena et al. [8]).
//
// The coordinator owns N shard *supervisors* — each managing a live
// runner attempt in this process or in a child process — and the
// shard-assignment rule. The discovery driver keeps its lattice,
// planning phase and serial key-ordered merge; only candidate
// validation crosses the seam:
//
//   construction    every base (level-1) partition is serialized once
//                   into the shared ShardBootstrap and shipped to every
//                   shard as kPartitionBlock frames — shard caches are
//                   wire-seeded, never table-derived. Process runners
//                   additionally receive a kConfigBlock and a
//                   kTableBlock first (they share nothing). The same
//                   encoded frames re-seed every respawned attempt;
//   per level       candidates are split by ShardOf(context) — all
//                   candidates sharing a context land on one shard, so
//                   a context partition is derived (at most) once per
//                   run, by exactly one shard — batched, shipped,
//                   validated shard-locally, and the kResultBatch
//                   replies are folded back into the driver's outcome
//                   slots in shard order;
//   supervision     each shard runs each level as one attempt under its
//                   ShardSupervisor (src/shard/supervisor.h): failures
//                   are retried with backoff and a fresh attempt, and a
//                   shard whose transport stays broken degrades to
//                   in-process execution instead of aborting the run;
//   Finish()        the shutdown handshake: a kShutdown frame per
//                   shard, answered by the kStatsFooter terminal frame
//                   carrying the shard's counters, then one
//                   shared-deadline reap pass over every runner process.
//
// Transports (ShardTransportOptions::transport):
//   kInProcess  mutex/cv frame queues; runners on the shared pool.
//   kSocket     localhost TCP between coordinator and in-process
//               runners — the full byte-transport path (length framing,
//               partial reads, writer threads) without process overhead.
//   kProcess    one spawned shard_runner_main per shard, connected over
//               localhost TCP; validation parallelism across processes.
//
// Failure contract: with supervision off (supervision.max_retries == 0,
// "strict mode") any transport, decode or process failure surfaces as a
// typed non-OK Status from Create/ValidateBatch/Finish — never a hang
// (receives are timeout-bounded) and never a partially-applied batch.
// With supervision on, a failure surfaces only after the per-level
// retry budget, the backoff ladder and the in-process fallback are all
// exhausted; DiscoveryResult::shard_status is reserved for those truly
// unrecoverable states.
//
// Determinism: the assignment rule is a pure hash of the context set, a
// runner's outcomes are pure functions of its batch (canonical
// partition values whatever the derivation path, seeded sampler), a
// replayed attempt receives byte-identical inputs, and exactly one
// attempt's buffered reply per shard is folded — in shard order,
// ascending slots within a shard — so sharded discovery output is
// bit-identical to the unsharded run for any shard count, any thread
// count, any transport, and any fault schedule that completes (gated by
// tests/parallel_determinism_test, tests/shard_supervisor_test and
// tests/shard_process_e2e_test).
#ifndef AOD_SHARD_COORDINATOR_H_
#define AOD_SHARD_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <sys/types.h>
#include <vector>

#include "common/status.h"
#include "data/encoder.h"
#include "shard/channel.h"
#include "shard/shard_runner.h"
#include "shard/supervisor.h"
#include "shard/wire.h"

namespace aod {

namespace exec {
class ThreadPool;
}  // namespace exec

namespace shard {

// ShardTransport (the {inproc, socket, process} selector) lives in
// od/discovery.h next to the other DiscoveryOptions vocabulary — this
// header reaches it through shard_runner.h.

struct ShardTransportOptions {
  ShardTransport transport = ShardTransport::kInProcess;
  /// Path to the shard_runner_main binary (process transport). Empty
  /// falls back to the AOD_SHARD_RUNNER environment variable.
  std::string runner_path;
  /// Bound on connects, accepts and every frame receive. A shard that
  /// dies silently surfaces as a typed timeout, never a hang. Clamped
  /// per wait to the time remaining before supervision.run_deadline
  /// when one is set.
  double io_timeout_seconds = 300.0;
  /// Receiver-side frame size cap (see ChannelOptions).
  int64_t max_frame_bytes = 1LL << 30;
  /// Retry/fallback policy (src/shard/supervisor.h);
  /// supervision.max_retries == 0 is strict fail-stop mode.
  ShardSupervisionOptions supervision;
  /// Test seam: wraps every coordinator-side channel endpoint (e.g. in a
  /// fault-injecting decorator). Identity when empty. Fallback attempts
  /// are NOT decorated — the decorator models the configured transport's
  /// failure domain, which the in-process fallback leaves.
  std::function<std::unique_ptr<ShardChannel>(std::unique_ptr<ShardChannel>)>
      channel_decorator;
};

class ShardCoordinator {
 public:
  /// Creates `num_shards` supervised runners over the selected transport
  /// and ships the base partitions (plus config + table for process
  /// runners). `pool` (nullable) runs in-process shard work; both
  /// `table` and `pool` are borrowed and must outlive the coordinator.
  /// Fails with a typed Status on any transport or spawn error that
  /// survives the supervision ladder.
  static Result<std::unique_ptr<ShardCoordinator>> Create(
      const EncodedTable* table, int num_shards,
      const ShardRunnerOptions& runner_options,
      const ShardTransportOptions& transport_options, exec::ThreadPool* pool);

  ~ShardCoordinator();
  AOD_DISALLOW_COPY_AND_ASSIGN(ShardCoordinator);

  /// The shard assignment rule: a pure hash (SplitMix64 finalizer, the
  /// same AttributeSetHash the cache stripes by) of the candidate's
  /// context set, mod the shard count. Keying by context — not by slot —
  /// colocates every candidate of a context with the one shard that
  /// derives its partition.
  static int ShardOf(uint64_t context_bits, int num_shards);

  /// Validates one level's candidates across the shards: splits
  /// `candidates` by ShardOf and runs every shard's ship/validate/receive
  /// round as one supervised task (concurrent across shards on the
  /// pool). `fold` is then invoked per outcome — shard order outside,
  /// ascending slots within a shard — after every shard's level
  /// completed. Replies are buffered per shard while in flight (chunk
  /// decode overlaps across shards on the pool); buffering is what lets
  /// a retried level fold only the successful attempt's outcomes,
  /// keeping the merge bit-identical under any fault schedule. Nothing
  /// is folded on a non-OK return. Candidates a shard did not finish
  /// before cancellation are simply absent — the driver's merge treats
  /// their slots as undone.
  Status ValidateBatch(const std::vector<WireCandidate>& candidates,
                       const std::function<bool()>& cancel,
                       const std::function<void(WireOutcome)>& fold);

  /// The shutdown handshake: ships kShutdown to every shard, collects
  /// the kStatsFooter terminal frames (validating served-frame count
  /// and attempt id), closes the links, and reaps every runner process
  /// against ONE shared deadline — a fleet of wedged children costs one
  /// I/O timeout total, not one per child — with a single SIGKILL
  /// escalation pass. Idempotent; the footer-backed accessors below are
  /// meaningful once this returned. Called by the destructor if the
  /// owner did not (best-effort, status swallowed). In supervised mode
  /// a lost footer or abnormal child exit is tolerated and counted
  /// (footers_missing) — the merged results are already correct.
  Status Finish();

  int num_shards() const { return static_cast<int>(supervisors_.size()); }

  /// Frame bytes shipped to and from shard `s` so far (both directions,
  /// as observed from the coordinator side, summed over every attempt
  /// ever made for the shard).
  int64_t bytes_shipped(int s) const;
  int64_t bytes_shipped_total() const;

  /// Frame bytes of one frame type, counted at the coordinator's
  /// encode/decode sites — the per-frame-type breakdown exp8 reports.
  /// Envelope and bootstrap framing overhead is not attributed here.
  int64_t frame_bytes(FrameType type) const;

  /// Every counter of the collected stats footers summed over the shards
  /// (DiscoveryStats feeds; shard_id and attempt_id stay 0). Shards whose
  /// footer never arrived (transport failure) contribute 0.
  ShardStatsFooter FooterTotals() const;

  // Supervision observability (DiscoveryStats feeds), summed over the
  // shards. Meaningful any time; stable once Finish returned.
  int64_t shard_retries() const;
  int64_t shard_respawns() const;
  /// Shards currently degraded to in-process execution.
  int64_t fallback_shards() const;
  /// Shards whose stats footer was lost to a tolerated shutdown fault.
  int64_t footers_missing() const;

 private:
  ShardCoordinator(const EncodedTable* table,
                   const ShardTransportOptions& transport_options,
                   exec::ThreadPool* pool);

  Status Init(int num_shards, const ShardRunnerOptions& runner_options);
  bool strict() const {
    return transport_.supervision.max_retries <= 0;
  }
  /// The shared-deadline reap pass (see Finish). Errors are recorded
  /// through `record` in strict mode only.
  void ReapAll(std::vector<ShardReapJob> jobs,
               const std::function<void(Status)>& record);

  const EncodedTable* table_;
  const ShardTransportOptions transport_;
  exec::ThreadPool* pool_;
  /// Encode-once frames + config template shared by every supervisor
  /// (and every respawned attempt).
  ShardBootstrap bootstrap_;
  std::vector<std::unique_ptr<ShardSupervisor>> supervisors_;
  bool finished_ = false;
  Status finish_status_;
};

}  // namespace shard
}  // namespace aod

#endif  // AOD_SHARD_COORDINATOR_H_
