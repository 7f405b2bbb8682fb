#include "shard/coordinator.h"

#include <sys/wait.h>

#include <chrono>
#include <csignal>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "exec/task_group.h"
#include "exec/thread_pool.h"
#include "partition/attribute_set.h"
#include "partition/stripped_partition.h"

namespace aod {
namespace shard {

ShardCoordinator::ShardCoordinator(
    const EncodedTable* table, const ShardTransportOptions& transport_options,
    exec::ThreadPool* pool)
    : table_(table), transport_(transport_options), pool_(pool) {}

Result<std::unique_ptr<ShardCoordinator>> ShardCoordinator::Create(
    const EncodedTable* table, int num_shards,
    const ShardRunnerOptions& runner_options,
    const ShardTransportOptions& transport_options, exec::ThreadPool* pool) {
  AOD_CHECK(table != nullptr);
  AOD_CHECK_MSG(num_shards >= 1, "num_shards must be >= 1, got %d",
                num_shards);
  std::unique_ptr<ShardCoordinator> coordinator(
      new ShardCoordinator(table, transport_options, pool));
  AOD_RETURN_NOT_OK(coordinator->Init(num_shards, runner_options));
  return coordinator;
}

Status ShardCoordinator::Init(int num_shards,
                              const ShardRunnerOptions& runner_options) {
  // Everything a fresh attempt needs, encoded — and checksummed — once:
  // the same bytes bootstrap the first attempt, every respawn and every
  // in-process fallback, so re-seeding costs sends, not re-encodes.
  bootstrap_.table = table_;
  bootstrap_.runner_options = runner_options;
  bootstrap_.num_shards = num_shards;
  bootstrap_.pool_workers = pool_ != nullptr ? pool_->num_workers() : 1;
  if (transport_.transport == ShardTransport::kProcess) {
    bootstrap_.table_frame = EncodeTableBlock(*table_);
  }
  // One kPartitionBlock per base (level-1) partition, shipped to every
  // shard as a single kBatch envelope — one syscall per seeding instead
  // of one per base. Socket sends are buffered by the channel's writer
  // thread, so even a serial coordinator cannot deadlock against an
  // unserved peer.
  const int k = table_->num_columns();
  std::vector<std::vector<uint8_t>> base_frames;
  base_frames.reserve(static_cast<size_t>(k));
  for (int a = 0; a < k; ++a) {
    base_frames.push_back(EncodePartitionBlock(
        AttributeSet().With(a),
        StrippedPartition::FromColumn(table_->column(a))));
    bootstrap_.base_frame_bytes +=
        static_cast<int64_t>(base_frames.back().size());
  }
  bootstrap_.base_frames = k;
  if (k == 1) {
    bootstrap_.base_shipment = std::move(base_frames[0]);
  } else if (k > 1) {
    bootstrap_.base_shipment = EncodeBatchEnvelope(base_frames);
  }

  supervisors_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    supervisors_.push_back(std::make_unique<ShardSupervisor>(
        s, &bootstrap_, &transport_, transport_.supervision, pool_));
  }
  // Started serially in shard order: attempt (and decorated-channel)
  // creation order stays deterministic, which the fault-injection tests
  // key their schedules on.
  for (auto& sup : supervisors_) {
    AOD_RETURN_NOT_OK(sup->Start());
  }
  return Status::OK();
}

ShardCoordinator::~ShardCoordinator() {
  Finish();  // best-effort when the owner did not; idempotent
}

int ShardCoordinator::ShardOf(uint64_t context_bits, int num_shards) {
  return static_cast<int>(AttributeSetHash{}(AttributeSet(context_bits)) %
                          static_cast<size_t>(num_shards));
}

Status ShardCoordinator::ValidateBatch(
    const std::vector<WireCandidate>& candidates,
    const std::function<bool()>& cancel,
    const std::function<void(WireOutcome)>& fold) {
  const int n = num_shards();
  std::vector<std::vector<WireCandidate>> batches(static_cast<size_t>(n));
  for (const WireCandidate& c : candidates) {
    batches[static_cast<size_t>(ShardOf(c.context_bits, n))].push_back(c);
  }

  // One result cell per shard for the level, written only by that
  // shard's task.
  struct LevelCell {
    Status status;
    std::vector<WireOutcome> outcomes;
  };
  std::vector<LevelCell> cells(static_cast<size_t>(n));

  // Each shard's ship/validate/receive round is one task: chunk decode
  // and (supervised) retry ladders overlap across shards, while the
  // serial shard-order fold below keeps delivery deterministic.
  exec::TaskGroup group(pool_);
  for (int s = 0; s < n; ++s) {
    ShardSupervisor* sup = supervisors_[static_cast<size_t>(s)].get();
    LevelCell* cell = &cells[static_cast<size_t>(s)];
    const std::vector<WireCandidate>* batch =
        &batches[static_cast<size_t>(s)];
    group.Run([sup, cell, batch, &cancel] {
      cell->status = sup->ExecuteLevel(*batch, cancel, &cell->outcomes);
    });
  }
  group.Wait();

  // Post-join, single-threaded: fold every shard's buffered reply in
  // shard order (ascending slots within a shard) — deterministic
  // regardless of the order shards finished in.
  for (const LevelCell& cell : cells) {
    AOD_RETURN_NOT_OK(cell.status);
  }
  for (LevelCell& cell : cells) {
    for (WireOutcome& o : cell.outcomes) fold(std::move(o));
  }
  return Status::OK();
}

void ShardCoordinator::ReapAll(std::vector<ShardReapJob> jobs,
                               const std::function<void(Status)>& record) {
  if (jobs.empty()) return;
  // ONE deadline for the whole fleet: a healthy child exits after
  // answering the shutdown (or on EOF once its socket closed); the
  // wedged ones — stuck without reading, so they never see EOF — are
  // all killed in a single escalation pass once the shared deadline
  // lapses, so shutdown costs at most one I/O timeout total, not one
  // per child.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(transport_.io_timeout_seconds));
  std::vector<char> done(jobs.size(), 0);
  size_t remaining = jobs.size();
  bool escalated = false;
  while (remaining > 0) {
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (done[i]) continue;
      int wstatus = 0;
      // After the SIGKILL pass the waits block — SIGKILL converges, so
      // they cannot hang.
      const pid_t reaped =
          ::waitpid(jobs[i].pid, &wstatus, escalated ? 0 : WNOHANG);
      if (reaped == 0) continue;
      done[i] = 1;
      --remaining;
      if (reaped < 0) {
        record(Status::IoError("waitpid failed for shard runner"));
        continue;
      }
      const bool killed_here = escalated && WIFSIGNALED(wstatus) &&
                               WTERMSIG(wstatus) == SIGKILL;
      if (!killed_here &&
          (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0)) {
        record(Status::Internal(
            "shard runner exited abnormally (status " +
            std::to_string(WIFEXITED(wstatus) ? WEXITSTATUS(wstatus)
                                              : -WTERMSIG(wstatus)) +
            ")"));
      }
    }
    if (remaining == 0 || escalated) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      for (size_t i = 0; i < jobs.size(); ++i) {
        if (done[i]) continue;
        ::kill(jobs[i].pid, SIGKILL);
        record(Status::Internal(
            "shard runner unresponsive at shutdown; killed"));
      }
      escalated = true;
      continue;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

Status ShardCoordinator::Finish() {
  if (finished_) return finish_status_;
  finished_ = true;

  Status result;
  const auto record = [&result](Status st) {
    if (result.ok() && !st.ok()) result = std::move(st);
  };
  // Supervised mode tolerates shutdown-path faults: the merged results
  // are already correct, and every tolerated loss is counted
  // (footers_missing). The supervisor methods themselves return OK for
  // tolerated faults, so `record` only ever sees strict-mode errors and
  // genuine supervised-mode breakage.
  const auto swallow = [](Status) {};

  // Shutdown handshake, pushed to every shard even if one fails — each
  // link must reach its terminal state before the channels close.
  for (auto& sup : supervisors_) {
    record(sup->SendShutdown());
  }
  {
    std::vector<Status> statuses(supervisors_.size());
    exec::TaskGroup group(pool_);
    for (size_t s = 0; s < supervisors_.size(); ++s) {
      ShardSupervisor* sup = supervisors_[s].get();
      Status* status = &statuses[s];
      group.Run([sup, status] { *status = sup->PumpShutdownServe(); });
    }
    group.Wait();
    for (Status& st : statuses) record(std::move(st));
  }
  for (auto& sup : supervisors_) {
    record(sup->CollectFooter());
  }
  for (auto& sup : supervisors_) {
    sup->CloseChannels();
  }
  std::vector<ShardReapJob> jobs;
  for (auto& sup : supervisors_) {
    sup->ReleaseProcesses(&jobs);
  }
  if (strict()) {
    ReapAll(std::move(jobs), record);
  } else {
    ReapAll(std::move(jobs), swallow);
  }
  finish_status_ = result;
  return finish_status_;
}

int64_t ShardCoordinator::bytes_shipped(int s) const {
  return supervisors_[static_cast<size_t>(s)]->bytes_shipped();
}

int64_t ShardCoordinator::bytes_shipped_total() const {
  int64_t total = 0;
  for (int s = 0; s < num_shards(); ++s) total += bytes_shipped(s);
  return total;
}

int64_t ShardCoordinator::frame_bytes(FrameType type) const {
  int64_t total = 0;
  for (const auto& sup : supervisors_) total += sup->frame_bytes(type);
  return total;
}

ShardStatsFooter ShardCoordinator::FooterTotals() const {
  ShardStatsFooter total;
  for (const auto& sup : supervisors_) {
    if (!sup->footer_valid()) continue;
    const ShardStatsFooter& f = sup->footer();
    total.frames_served += f.frames_served;
    total.products_computed += f.products_computed;
    total.planner_derivations += f.planner_derivations;
    total.planner_cost_estimated += f.planner_cost_estimated;
    total.planner_cost_realized += f.planner_cost_realized;
    total.partitions_evicted += f.partitions_evicted;
    total.partition_bytes_evicted += f.partition_bytes_evicted;
    total.partition_bytes_final += f.partition_bytes_final;
    total.partition_bytes_peak += f.partition_bytes_peak;
    total.partition_seconds += f.partition_seconds;
  }
  return total;
}

int64_t ShardCoordinator::shard_retries() const {
  int64_t total = 0;
  for (const auto& sup : supervisors_) total += sup->retries();
  return total;
}

int64_t ShardCoordinator::shard_respawns() const {
  int64_t total = 0;
  for (const auto& sup : supervisors_) total += sup->respawns();
  return total;
}

int64_t ShardCoordinator::fallback_shards() const {
  int64_t total = 0;
  for (const auto& sup : supervisors_) total += sup->fell_back() ? 1 : 0;
  return total;
}

int64_t ShardCoordinator::footers_missing() const {
  int64_t total = 0;
  for (const auto& sup : supervisors_) total += sup->footer_missing() ? 1 : 0;
  return total;
}

}  // namespace shard
}  // namespace aod
