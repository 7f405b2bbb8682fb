#include "shard/coordinator.h"

#include <utility>

#include "common/macros.h"
#include "exec/task_group.h"
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
  // One kPartitionBlock frame per base (level-1) partition.
  const int k = table_->num_columns();
  bootstrap_.base_frames.reserve(static_cast<size_t>(k));
  for (int a = 0; a < k; ++a) {
    bootstrap_.base_frames.push_back(EncodePartitionBlock(
        AttributeSet().With(a),
        StrippedPartition::FromColumn(table_->column(a))));
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

  // Each shard's ship/validate/receive round is one task, so shards
  // validate, decode and (supervised) retry concurrently, while the
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
