// Wire vocabulary of the discovery-as-a-service job protocol.
//
// A DiscoveryClient and a DiscoveryServer exchange the serve frame types
// (wire.h, FrameType 9-13) over an ordinary ShardChannel, so the job
// protocol inherits the shard seam's entire robustness stack for free:
// magic/version/checksum validation, bounded frame sizes, bounds-checked
// payload reads, kBatch coalescing. This module owns only the payload
// layouts; nothing here does I/O.
//
// Conversation shape (one TCP connection, any number of jobs):
//
//   client                              server
//   ------                              ------
//   kJobSubmit(request_id, opts, table)
//                                       kJobStatus(job_id, queued)   (ack)
//                                    or kJobError(code, msg)         (reject)
//                                       kJobStatus(job_id, running, level...)*
//                                       kJobResultBatch(job_id, chunk)*
//                                       kJobResultBatch(job_id, final chunk)
//   kJobStatus(job_id)  (bare query)
//                                       kJobStatus(job_id, snapshot)
//   kCancel(job_id)
//                                       ... the job's final result arrives
//                                       with cancelled set (a cancelled job
//                                       still answers — with the valid
//                                       prefix it had).
//
// Every terminal outcome of an *admitted* job is a result blob (even
// cancelled/timed-out runs: DiscoveryResult carries those flags), so
// kJobError is reserved for jobs that never ran: admission rejections
// (kOverloaded, kShuttingDown) and malformed submissions.
#ifndef AOD_SERVE_SERVE_WIRE_H_
#define AOD_SERVE_SERVE_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "od/dependency_kind.h"
#include "od/discovery.h"
#include "shard/wire.h"

namespace aod {
namespace serve {

/// Job lifecycle states as they appear in kJobStatus frames.
enum class JobState : uint8_t {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,
  kCancelled = 3,
  kFailed = 4,
};

const char* JobStateToString(JobState state);

/// The client-settable DiscoveryOptions subset. Everything execution-
/// environmental (thread pool, shard topology, transports, test seams)
/// is the server's business: a job describes *what* to discover, the
/// server decides *how*. Converted to/from DiscoveryOptions by the
/// helpers below.
struct WireJobOptions {
  double epsilon = 0.10;
  /// ValidatorKind underlying value; decoders reject > 2.
  uint8_t validator = 2;
  /// DependencyKindSet bits; decoders reject empty or out-of-range sets.
  uint32_t kinds = DependencyKindSet::OdDefault().bits();
  /// Maximum g1 error for AFD candidates; decoders reject values
  /// outside [0, 1].
  double afd_error = 0.05;
  /// Keep only the k highest-ranked dependencies (0 = all); decoders
  /// reject negative values.
  int64_t top_k = 0;
  int32_t max_level = 0;
  int32_t max_lhs_arity = 0;
  bool bidirectional = false;
  bool collect_removal_sets = false;
  bool enable_sampling_filter = false;
  int64_t sampler_sample_size = 2000;
  double sampler_reject_margin = 0.5;
  uint64_t sampler_seed = 7;
  int64_t partition_memory_budget_bytes = 0;
  /// Per-job wall-clock deadline in seconds (0 = none). The server
  /// additionally caps it at its own max_job_seconds and enforces it
  /// through the driver's cooperative budget seams.
  double deadline_seconds = 0.0;
};

WireJobOptions WireJobOptionsFrom(const DiscoveryOptions& options);
/// Applies the subset onto a default-constructed DiscoveryOptions; the
/// caller then fills in the environmental fields (pool, cancel, ...).
DiscoveryOptions ToDiscoveryOptions(const WireJobOptions& wire);

/// One job submission. The table travels as a complete sealed
/// kTableBlock frame (shard::EncodeTableBlock) nested in the payload —
/// reusing the shard decoder means the ranks arrive validated against
/// their declared cardinalities, exactly as on the shard seam.
struct WireJobSubmit {
  /// Client-chosen token echoed in the ack/rejection, so a client with
  /// several submissions in flight can match answers to questions.
  uint64_t request_id = 0;
  WireJobOptions options;
  std::vector<uint8_t> table_frame;
};

std::vector<uint8_t> EncodeJobSubmit(const WireJobSubmit& submit);
Result<WireJobSubmit> DecodeJobSubmit(const shard::DecodedFrame& frame);

/// Server -> client lifecycle/progress snapshot; client -> server as a
/// bare query (only job_id meaningful).
struct WireJobStatus {
  uint64_t job_id = 0;
  /// Echo of the submission's request_id (0 on bare queries/progress).
  uint64_t request_id = 0;
  JobState state = JobState::kQueued;
  /// Jobs ahead of this one when queued; -1 otherwise.
  int32_t queue_position = -1;
  /// Last completed lattice level while running.
  int32_t level = 0;
  /// Dependency totals so far, all four kinds — a mixed-kind job's
  /// progress is mostly FD/AFD counts, so dropping them made status
  /// frames claim an idle job. Decode rejects negative counts.
  int64_t total_ocs = 0;
  int64_t total_ofds = 0;
  int64_t total_fds = 0;
  int64_t total_afds = 0;
};

std::vector<uint8_t> EncodeJobStatus(const WireJobStatus& status);
Result<WireJobStatus> DecodeJobStatus(const shard::DecodedFrame& frame);

/// A typed rejection/failure for a job that never produced a result.
struct WireJobError {
  /// 0 when the submission itself was rejected (no job was created).
  uint64_t job_id = 0;
  uint64_t request_id = 0;
  Status status;
};

std::vector<uint8_t> EncodeJobError(const WireJobError& error);
Result<WireJobError> DecodeJobError(const shard::DecodedFrame& frame);

/// One slice of a finished job's serialized result blob
/// (od/result_io.h, SerializeResult). The client concatenates slices in
/// arrival order and deserializes once the final chunk lands — the same
/// chunking discipline as the shard seam's kResultBatch, so a large
/// result streams under the frame-size bound instead of materializing
/// one giant frame.
struct WireJobResultChunk {
  uint64_t job_id = 0;
  bool final_chunk = true;
  std::vector<uint8_t> blob_bytes;
};

std::vector<uint8_t> EncodeJobResultChunk(const WireJobResultChunk& chunk);
Result<WireJobResultChunk> DecodeJobResultChunk(
    const shard::DecodedFrame& frame);

/// kCancel payload: the job to abandon.
std::vector<uint8_t> EncodeCancel(uint64_t job_id);
Result<uint64_t> DecodeCancel(const shard::DecodedFrame& frame);

}  // namespace serve
}  // namespace aod

#endif  // AOD_SERVE_SERVE_WIRE_H_
