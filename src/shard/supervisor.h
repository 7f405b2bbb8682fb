// Per-shard supervision: retry, respawn, degrade.
//
// PR 5/6 made every transport fault fail-stop: one torn frame or dead
// runner aborted the whole run with DiscoveryResult::shard_status,
// throwing away all sibling shards' work. A ShardSupervisor turns shard
// failure into a retried, bounded, observable event — the MapReduce
// re-execution model applied to the shard seam. Each shard runs each
// level as one supervised attempt:
//
//   retry / respawn   a failed level (or failed establishment) tears the
//                     attempt down and builds a fresh one — new process
//                     or socket, re-seeded from the coordinator's
//                     encode-once bootstrap frames — after an
//                     exponential backoff with deterministic jitter,
//                     up to max_retries re-attempts per level;
//   degradation       once the retry budget is exhausted on the socket
//                     or process transport, the shard's candidate slice
//                     executes in-process on the coordinator's pool (an
//                     undecorated InProcessChannel attempt seeded from
//                     the same bootstrap frames) instead of aborting.
//
// Attempt identity crosses the wire: each (re)establishment carries a
// fresh attempt_id in its config block, echoed by the runner's stats
// footer, so a superseded attempt's footer is distinguishable from the
// live one.
//
// Strict mode: max_retries == 0 disables retry and fallback and
// preserves the PR 5/6 failure contract exactly — any fault is a typed
// non-OK status, never a hang, never a partially merged level
// (tests/shard_channel_conformance_test pins this with retries pinned
// to 0).
//
// Threading: a supervisor is driven by one thread at a time — Start
// and the Finish-phase calls from the coordinator's thread,
// ExecuteLevel and PumpShutdownServe from one pool task per shard —
// and each hand-over is ordered by a TaskGroup join. No method is
// called concurrently with another on the same supervisor.
#ifndef AOD_SHARD_SUPERVISOR_H_
#define AOD_SHARD_SUPERVISOR_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "data/encoder.h"
#include "shard/channel.h"
#include "shard/shard_runner.h"
#include "shard/wire.h"

namespace aod {

namespace exec {
class ThreadPool;
}  // namespace exec

namespace shard {

struct ShardTransportOptions;

/// The supervision policy, fixed for a run (DiscoveryOptions carries the
/// user-facing knobs).
struct ShardSupervisionOptions {
  /// Re-attempts allowed per level (and for the initial establishment)
  /// before the shard degrades to in-process execution (socket/process
  /// transports) or the run aborts (in-process transport). 0 = strict
  /// mode: no retry, no fallback — the PR 5 fail-stop contract.
  int max_retries = 2;
  /// Base backoff before the first re-attempt; doubles per attempt with
  /// deterministic (hash-of-(shard, attempt)) jitter, capped at 2s and
  /// at the run deadline.
  double retry_backoff_ms = 25.0;
  /// Absolute deadline of the discovery run (time_point::min() = none).
  /// Every per-attempt receive timeout, accept timeout and backoff
  /// sleep is clamped to the time remaining, so a dead runner cannot
  /// overshoot a budgeted run by the full I/O timeout.
  std::chrono::steady_clock::time_point run_deadline =
      std::chrono::steady_clock::time_point::min();
};

/// The coordinator's encode-once bootstrap: everything a fresh attempt
/// needs to be re-seeded, shared by all shards' supervisors. Frames are
/// encoded (and checksummed) once per run, not once per attempt.
struct ShardBootstrap {
  const EncodedTable* table = nullptr;
  /// kTableBlock for process runners (empty otherwise).
  std::vector<uint8_t> table_frame;
  /// The base (level-1) partitions: one kBatch envelope of
  /// `base_frames` kPartitionBlock frames (or the single frame when
  /// base_frames == 1). `base_frame_bytes` sums the inner frames, the
  /// kPartitionBlock volume credited per shipment.
  std::vector<uint8_t> base_shipment;
  int64_t base_frame_bytes = 0;
  int base_frames = 0;
  /// Per-runner options template; the supervisor stamps attempt_id.
  ShardRunnerOptions runner_options;
  int num_shards = 1;
  /// Coordinator pool width, for the per-child thread slice.
  int pool_workers = 1;
};

/// One process reaped by the coordinator's shared-deadline reap pass.
struct ShardReapJob {
  pid_t pid = -1;
};

class ShardSupervisor {
 public:
  /// All pointers are borrowed and must outlive the supervisor.
  ShardSupervisor(int shard_id, const ShardBootstrap* bootstrap,
                  const ShardTransportOptions* transport,
                  const ShardSupervisionOptions& supervision,
                  exec::ThreadPool* pool);
  ~ShardSupervisor();
  AOD_DISALLOW_COPY_AND_ASSIGN(ShardSupervisor);

  /// Establishes and seeds the first attempt, with the full retry +
  /// fallback ladder in supervised mode. In strict mode a failure is
  /// returned as-is and the partially built attempt (possibly holding a
  /// spawned pid) is kept for the Finish-phase reap.
  Status Start();

  /// Ships `batch`, pumps an in-process runner if the attempt has one,
  /// and receives the chunked reply into `out` (ascending slot order).
  /// On failure: teardown, backoff, respawn, re-execute — up to
  /// max_retries re-attempts — then the in-process fallback; only when
  /// all of that is exhausted does the error surface. Empty batches
  /// still make the round trip: the request/reply cadence is one frame
  /// per shard per level.
  Status ExecuteLevel(const std::vector<WireCandidate>& batch,
                      const std::function<bool()>& cancel,
                      std::vector<WireOutcome>* out);

  // --- Finish phase (driven by ShardCoordinator::Finish, in order) ---
  /// Ships the kShutdown frame on the current attempt.
  Status SendShutdown();
  /// One ServeOne for an attempt with an in-process runner (answers the
  /// shutdown with the stats footer).
  Status PumpShutdownServe();
  /// Drains stale reply frames (bounded) and decodes the stats footer,
  /// validating served-frame count and attempt id. Strict mode returns
  /// the PR 5 typed errors; supervised mode tolerates a lost footer
  /// (the level work is already merged) and counts it instead.
  Status CollectFooter();
  void CloseChannels();
  /// Hands every still-live runner process over for the coordinator's
  /// shared-deadline reap; the supervisor forgets the pids.
  void ReleaseProcesses(std::vector<ShardReapJob>* jobs);

  // --- Observability (read by the coordinator after the level tasks
  // joined) ---
  int shard_id() const { return shard_id_; }
  bool strict() const { return supervision_.max_retries <= 0; }
  int64_t retries() const { return retries_.load(); }
  int64_t respawns() const { return respawns_.load(); }
  bool fell_back() const { return fell_back_; }
  bool footer_missing() const { return footer_missing_; }
  bool footer_valid() const { return footer_valid_; }
  const ShardStatsFooter& footer() const { return footer_; }
  /// Wire bytes both directions, live attempt plus every torn-down one.
  int64_t bytes_shipped() const;
  /// Frame bytes of one type, summed over every attempt.
  int64_t frame_bytes(FrameType type) const;

 private:
  /// One (re)establishment: channels, receiver, in-process runner or
  /// spawned process. Channel storage precedes the runner so the runner
  /// (which borrows channel pointers) dies first.
  struct Attempt {
    uint32_t id = 0;
    /// True for the degraded in-process fallback (undecorated channels).
    bool fallback = false;
    std::unique_ptr<ShardChannel> to;
    std::unique_ptr<ShardChannel> from;
    std::unique_ptr<ShardChannel> runner_side;
    ShardChannel* to_shard = nullptr;
    ShardChannel* from_shard = nullptr;
    std::unique_ptr<LogicalFrameReceiver> receiver;
    std::unique_ptr<ShardRunner> runner;  // null for process attempts
    pid_t pid = -1;
    /// Frames this attempt was sent that its runner serves (bases +
    /// batches + shutdown) — the footer cross-check is per attempt.
    int64_t frames_sent = 0;
  };

  double DeadlineRemaining() const;  // +inf when no deadline
  /// min(io timeout, time remaining to the run deadline), floored so a
  /// receive still gets a beat to drain an already-arrived frame.
  double BoundedIoTimeout() const;
  bool DeadlineExpired() const;
  std::unique_ptr<ShardChannel> Decorate(std::unique_ptr<ShardChannel> ch);
  void AddFrameBytes(FrameType type, int64_t bytes);

  /// Builds one attempt (connect/spawn/bootstrap-send). On failure the
  /// partially built attempt is still handed back through `out` so the
  /// caller can keep it for reaping (strict) or tear it down (retry).
  Status BuildAttempt(bool force_inproc, std::unique_ptr<Attempt>* out);
  /// Ships the base partitions and, for attempts with an in-process
  /// runner, pumps them into the runner's cache.
  Status SeedAttempt(Attempt* attempt, const std::function<bool()>& cancel);
  /// BuildAttempt + install as current_ + SeedAttempt.
  Status EstablishCurrent(bool force_inproc,
                          const std::function<bool()>& cancel);
  /// One send/pump/receive round for a level on one attempt.
  Status ExecuteLevelOnce(Attempt* attempt,
                          const std::vector<WireCandidate>& batch,
                          const std::function<bool()>& cancel,
                          std::vector<WireOutcome>* out);
  /// Exponential backoff with deterministic jitter before re-attempt
  /// `attempt_try`; returns early on cancel/deadline.
  void Backoff(int attempt_try, const std::function<bool()>& cancel);
  /// Swaps the slot empty under the attempt mutex, then closes channels,
  /// SIGKILLs + reaps a live process, and folds the attempt's channel
  /// byte counters into retired_bytes_.
  void Teardown(std::unique_ptr<Attempt>* slot);
  void DestroyAttempt(std::unique_ptr<Attempt> attempt);

  const int shard_id_;
  const ShardBootstrap* const bootstrap_;
  const ShardTransportOptions* const transport_;
  const ShardSupervisionOptions supervision_;
  exec::ThreadPool* const pool_;

  /// Guards current_'s pointer identity. No cross-thread caller remains
  /// (see "Threading" above): every reader and writer is the one thread
  /// driving the supervisor at the time.
  mutable std::mutex attempts_mutex_;
  std::unique_ptr<Attempt> current_;
  std::atomic<uint32_t> attempt_seq_{0};

  /// Guards the byte counters. Like attempts_mutex_, it has no
  /// cross-thread caller left: the level task encodes and decodes, the
  /// coordinator reads after the join.
  mutable std::mutex stats_mutex_;
  int64_t frame_bytes_[static_cast<size_t>(FrameType::kBatch) + 1] = {};
  int64_t retired_bytes_ = 0;

  /// Written by the driving thread, read by the coordinator after the
  /// join — atomics without a concurrent writer.
  std::atomic<int64_t> retries_{0};
  std::atomic<int64_t> respawns_{0};
  bool fell_back_ = false;
  bool footer_missing_ = false;
  bool footer_valid_ = false;
  ShardStatsFooter footer_;
};

}  // namespace shard
}  // namespace aod

#endif  // AOD_SHARD_SUPERVISOR_H_
