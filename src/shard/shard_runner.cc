#include "shard/shard_runner.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "exec/parallel_for.h"
#include "od/interestingness.h"
#include "od/validator_registry.h"

namespace aod {
namespace shard {

ShardRunner::ShardRunner(int shard_id, const EncodedTable* table,
                         const ShardRunnerOptions& options,
                         ShardChannel* inbox, ShardChannel* outbox,
                         exec::ThreadPool* pool)
    : shard_id_(shard_id),
      table_(table),
      options_(options),
      epsilon_(options.validator == ValidatorKind::kExact ? 0.0
                                                          : options.epsilon),
      inbox_(inbox),
      outbox_(outbox),
      receiver_(inbox),
      pool_(pool),
      cache_(table, PartitionCache::DeferBasePartitions{}) {
  AOD_CHECK(table != nullptr && inbox != nullptr && outbox != nullptr);
  if (options_.enable_sampling_filter &&
      options_.validator == ValidatorKind::kOptimal) {
    // Same seeded sample as any other site given the same config, so
    // fast-reject decisions match the unsharded run bit for bit.
    sampler_ = std::make_unique<AocSampler>(table_, options_.sampler_config);
  }
}

Status ShardRunner::ServeOne(const std::function<bool()>& cancel,
                             bool* shutdown) {
  if (shutdown != nullptr) *shutdown = false;
  AOD_ASSIGN_OR_RETURN(std::vector<uint8_t> raw, receiver_.Receive());
  AOD_ASSIGN_OR_RETURN(DecodedFrame frame, DecodeFrame(raw));
  ++frames_served_;
  switch (frame.type) {
    case FrameType::kPartitionBlock:
      return HandlePartitionBlock(frame);
    case FrameType::kCandidateBatch:
      return HandleCandidateBatch(frame, cancel);
    case FrameType::kShutdown:
      if (shutdown != nullptr) *shutdown = true;
      return HandleShutdown();
    case FrameType::kResultBatch:
    case FrameType::kTableBlock:
    case FrameType::kConfigBlock:
    case FrameType::kStatsFooter:
    case FrameType::kBatch:  // the receiver already unwrapped envelopes
    case FrameType::kJobSubmit:  // serve-layer vocabulary; never shard-bound
    case FrameType::kJobStatus:
    case FrameType::kJobResultBatch:
    case FrameType::kJobError:
    case FrameType::kCancel:
      break;
  }
  return Status::InvalidArgument("unexpected frame type on shard inbox");
}

Status ShardRunner::Serve(const std::function<bool()>& cancel) {
  for (;;) {
    bool shutdown = false;
    AOD_RETURN_NOT_OK(ServeOne(cancel, &shutdown));
    if (shutdown) return Status::OK();
  }
}

Status ShardRunner::HandlePartitionBlock(const DecodedFrame& frame) {
  AOD_ASSIGN_OR_RETURN(auto block,
                       DecodePartitionBlock(frame, table_->num_rows()));
  cache_.Preload(block.first, std::move(block.second));
  SampleResidency();
  return Status::OK();
}

Status ShardRunner::HandleShutdown() {
  return outbox_->Send(EncodeStatsFooter(FooterStats()));
}

void ShardRunner::SampleResidency() {
  bytes_peak_ = std::max(bytes_peak_, cache_.bytes_resident());
}

ShardStatsFooter ShardRunner::FooterStats() const {
  ShardStatsFooter footer;
  footer.shard_id = static_cast<uint32_t>(shard_id_);
  footer.attempt_id = options_.attempt_id;
  footer.frames_served = frames_served_;
  footer.products_computed = cache_.products_computed();
  footer.planner_derivations = cache_.planner_derivations();
  footer.planner_cost_estimated = cache_.planner_cost_estimated();
  footer.planner_cost_realized = cache_.planner_cost_realized();
  footer.partitions_evicted = cache_.partitions_evicted();
  footer.partition_bytes_evicted = bytes_evicted_;
  footer.partition_bytes_final = cache_.bytes_resident();
  footer.partition_bytes_peak = bytes_peak_;
  footer.partition_seconds = partition_seconds();
  return footer;
}

Status ShardRunner::HandleCandidateBatch(const DecodedFrame& frame,
                                         const std::function<bool()>& cancel) {
  AOD_ASSIGN_OR_RETURN(std::vector<WireCandidate> batch,
                       DecodeCandidateBatch(frame));

  // A candidate whose kind this run never enabled is a coordinator bug
  // (or a corrupted-but-checksum-valid stream), not work to skip: reject
  // the whole batch before spending any validation time on it.
  for (const WireCandidate& c : batch) {
    if (!options_.kinds.Contains(c.kind)) {
      return Status::InvalidArgument(
          "candidate batch carries kind '" +
          std::string(DependencyKindToString(c.kind)) +
          "' outside the configured set " + options_.kinds.ToString());
    }
  }

  // Parallel over the batch on the shared pool (nested fork/join is safe;
  // the coordinator runs each shard as one pool task). Every outcome slot
  // is written by exactly one iteration; `done` marks the candidates that
  // finished before a deadline cancellation.
  std::vector<WireOutcome> outcomes(batch.size());
  std::vector<uint8_t> done(batch.size(), 0);
  exec::ParallelForOptions popts;
  popts.cancel = cancel;
  exec::ParallelFor(pool_, 0, static_cast<int64_t>(batch.size()),
                    [&](int64_t i) {
                      ValidateOne(batch[static_cast<size_t>(i)],
                                  &outcomes[static_cast<size_t>(i)]);
                      done[static_cast<size_t>(i)] = 1;
                    },
                    popts);

  // Reply in batch (= ascending slot) order with whatever completed, so
  // the frame bytes are deterministic whenever the batch ran to the end.
  std::vector<WireOutcome> completed;
  completed.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    if (done[i]) completed.push_back(std::move(outcomes[i]));
  }

  // Stream the reply as bounded chunks (last one final-flagged) through
  // the coalescing sender: the coordinator starts folding early chunks
  // while later candidates' bytes are still in flight, and several tiny
  // chunks ride one envelope instead of paying per-frame overhead.
  constexpr size_t kChunkOutcomes = 512;
  BatchingFrameSender sender(outbox_);
  size_t begin = 0;
  do {
    const size_t end = std::min(begin + kChunkOutcomes, completed.size());
    std::vector<WireOutcome> chunk(
        std::make_move_iterator(completed.begin() + begin),
        std::make_move_iterator(completed.begin() + end));
    const bool final_chunk = end == completed.size();
    AOD_RETURN_NOT_OK(sender.Add(EncodeResultBatch(chunk, final_chunk)));
    begin = end;
  } while (begin < completed.size());
  AOD_RETURN_NOT_OK(sender.Flush());

  // The batch's ParallelFor has joined, so every cache future is
  // resolved — the precondition budget enforcement (and an exact
  // residency sample) needs. The completed contexts' costs go to the
  // planner catalog here, in sorted order, and nowhere else: the catalog
  // changes only at batch boundaries, so every plan within a batch reads
  // the same catalog and the product count is a pure function of the
  // batch sequence (ARCHITECTURE.md).
  SampleResidency();
  std::vector<uint64_t> contexts;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (done[i] && AttributeSet(batch[i].context_bits).size() >= 2) {
      contexts.push_back(batch[i].context_bits);
    }
  }
  std::sort(contexts.begin(), contexts.end());
  contexts.erase(std::unique(contexts.begin(), contexts.end()),
                 contexts.end());
  for (uint64_t bits : contexts) cache_.PublishCost(AttributeSet(bits));
  if (options_.partition_memory_budget_bytes > 0) {
    bytes_evicted_ += cache_.EnforceBudget(
        options_.partition_memory_budget_bytes);
  }
  return Status::OK();
}

double ShardRunner::partition_seconds() const {
  return static_cast<double>(
             partition_nanos_.load(std::memory_order_relaxed)) /
         1e9;
}

void ShardRunner::ValidateOne(const WireCandidate& candidate,
                              WireOutcome* out) {
  const AttributeSet context(candidate.context_bits);
  std::shared_ptr<const StrippedPartition> partition;
  if (cache_.Contains(context)) {
    partition = cache_.Get(context);
  } else {
    Stopwatch derive_sw;
    partition = cache_.Get(context);
    partition_nanos_.fetch_add(derive_sw.ElapsedNanos(),
                               std::memory_order_relaxed);
  }
  std::unique_ptr<ValidatorScratch> scratch = AcquireScratch();

  ValidationRequest request;
  request.table = table_;
  request.context_partition = partition.get();
  request.kind = candidate.kind;
  request.target = candidate.target;
  request.pair =
      AttributePair{candidate.pair_a, candidate.pair_b, candidate.opposite};
  request.algorithm = options_.validator;
  request.epsilon = epsilon_;
  request.afd_error = options_.afd_error;
  request.table_rows = table_->num_rows();
  request.options.collect_removal_set = options_.collect_removal_sets;
  request.sampler = sampler_.get();
  request.scratch = scratch.get();

  Stopwatch sw;
  DependencyVerdict verdict = ValidateDependency(request);
  out->seconds = sw.ElapsedSeconds();
  ReleaseScratch(std::move(scratch));

  out->slot = candidate.slot;
  out->kind = candidate.kind;
  out->valid = verdict.valid;
  out->early_exit = verdict.early_exit;
  out->removal_size = verdict.removal_size;
  out->approx_factor = verdict.error;
  out->removal_rows = std::move(verdict.removal_rows);
  out->interestingness =
      InterestingnessScore(*partition, context.size(), table_->num_rows());
}

std::unique_ptr<ValidatorScratch> ShardRunner::AcquireScratch() {
  {
    std::lock_guard<std::mutex> lock(scratch_mutex_);
    if (!free_scratch_.empty()) {
      std::unique_ptr<ValidatorScratch> scratch =
          std::move(free_scratch_.back());
      free_scratch_.pop_back();
      return scratch;
    }
  }
  return std::make_unique<ValidatorScratch>();
}

void ShardRunner::ReleaseScratch(std::unique_ptr<ValidatorScratch> scratch) {
  std::lock_guard<std::mutex> lock(scratch_mutex_);
  free_scratch_.push_back(std::move(scratch));
}

}  // namespace shard
}  // namespace aod
