// The versioned, checksummed wire format of the sharding subsystem.
//
// Everything that crosses the shard seam — partitions, candidate batches,
// validation results — travels as a self-delimiting *frame*:
//
//   offset  field      width
//   0       magic      u32   "AODW" (0x414F4457)
//   4       version    u16   kWireVersion; decoders reject anything else
//   6       type       u16   FrameType
//   8       size       u64   payload byte count
//   16      checksum   u64   FNV-1a over the payload bytes
//   24      payload    size bytes
//
// All integers are little-endian; doubles ship as their IEEE-754 bit
// pattern, so a value survives the round trip bit-exactly — the
// determinism contract (ARCHITECTURE.md) extends across the wire only
// because nothing is ever re-derived through text or rounding. Decoders
// validate magic, version, declared size and checksum before touching
// the payload, and every payload read is bounds-checked, so a truncated
// or corrupted buffer yields a clean ParseError, never a misparse.
//
// Every payload has exactly one fixed-width layout. Nothing is
// compressed: every supported transport is in-process or loopback, where
// encoding a compressed body costs more time than its smaller size
// saves. Every message is exactly one frame: nothing is enveloped,
// split or coalesced in transit.
//
// The frame layer is transport-agnostic: ShardChannel moves opaque
// frames, and the socket transport replaces the in-process queue
// without touching any encoder or decoder.
#ifndef AOD_SHARD_WIRE_H_
#define AOD_SHARD_WIRE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/encoder.h"
#include "od/dependency_kind.h"
#include "partition/attribute_set.h"
#include "partition/stripped_partition.h"

namespace aod {
namespace shard {

inline constexpr uint32_t kWireMagic = 0x414F4457;  // "AODW"
/// Version 2: compressed payload codecs (flags byte) + batch envelopes
/// (frame type 8) + split raw/wire byte accounting in the stats footer.
/// Version 3: an attempt id in the config block and the stats footer, so
/// a supervising coordinator that respawned a shard can tell a stale
/// attempt's footer from the live one (src/shard/supervisor.h).
/// Version 4: multi-kind candidates — the candidate's is_ofd byte became
/// a DependencyKind id, outcomes echo their candidate's kind, and the
/// config block carries the enabled kind set and the AFD g1 threshold.
/// Decoders reject unknown kind ids and out-of-range thresholds with
/// typed parse errors.
/// Version 5 (withdrawn): row-space sharding — sliced kTableBlock rows,
/// a row range in the config block and a partition-fragment frame
/// (type 14).
/// Version 6: the v4 frame set again; whole-table kTableBlock only and
/// no fragment frame. The bump makes a stale v5 peer fail with a typed
/// version error instead of misparsing a table or config block.
/// Version 7: kJobSubmit drops the derivation-planner flag byte (the
/// planner is the only derivation rule) and kStatsFooter carries the
/// shard cache's three planner counters after products_computed.
/// Version 8: every frame ships raw. kPartitionBlock loses its codec
/// byte, kCandidateBatch its flags byte and each kTableBlock column its
/// rank-codec byte; kResultBatch keeps its flags byte for its
/// final-chunk bit only. The config block drops its compression
/// byte and kStatsFooter the two decoded raw/wire byte counters.
/// Still version 8: frame type 5 (kConfigBlock, the spawned runner
/// process's validation config) is retired. No encoder emits it,
/// DecodeFrame rejects it as an unknown type, and the number is never
/// reused. Every other layout is unchanged.
/// Version 9: one frame per message. kResultBatch drops its flags byte
/// (a level's reply is always one frame), and frame type 8 (the batch
/// envelope of inner frames) is retired like type 5. The serve frames
/// are byte-identical to version 8.
inline constexpr uint16_t kWireVersion = 9;
/// Frame type numbers that are retired: no encoder emits them,
/// DecodeFrame rejects them as unknown types, and they are never reused.
inline constexpr uint16_t kRetiredFrameTypes[] = {5, 8};
inline constexpr size_t kFrameHeaderBytes = 24;

enum class FrameType : uint16_t {
  /// One attribute set + its stripped partition in CSR encoding; seeds a
  /// shard's partition cache.
  kPartitionBlock = 1,
  /// The candidates assigned to one shard for one lattice level.
  kCandidateBatch = 2,
  /// The outcomes a shard completed for one candidate batch: a level's
  /// whole reply.
  kResultBatch = 3,
  /// The rank-encoded table columns, nested inline in a serve
  /// kJobSubmit (shard runners share the table by pointer and never see
  /// this frame).
  kTableBlock = 4,
  // 5 is retired (kRetiredFrameTypes) and never reused.
  /// Coordinator -> runner: the run is over; reply with a stats footer
  /// and exit the serve loop. Empty payload.
  kShutdown = 6,
  /// Runner -> coordinator: the terminal frame of a shard conversation,
  /// carrying the shard's DiscoveryStats counters, so every transport
  /// reports them through the same frame.
  kStatsFooter = 7,
  // 8 is retired (kRetiredFrameTypes) and never reused.

  // --- The serving vocabulary (src/serve/) ---------------------------
  // The discovery-as-a-service job protocol between a DiscoveryClient
  // and a long-lived DiscoveryServer. It rides the same frame layer
  // (magic/version/checksum, bounded decode) so a job submission gets
  // the identical malformed-input protection as the shard seam; the
  // encoders/decoders live in src/serve/serve_wire.{h,cc}.
  /// Client -> server: one discovery job — a DiscoveryOptions subset
  /// plus the table (inline kTableBlock bytes, or a server-side CSV
  /// path reference).
  kJobSubmit = 9,
  /// Server -> client: acceptance + lifecycle/progress updates for one
  /// job (queued/running/done, queue position, level progress). Also
  /// client -> server as a bare job-id query.
  kJobStatus = 10,
  /// Server -> client: one chunk of a finished job's result (a
  /// final-chunk flag; the final chunk carries the stats and the
  /// terminal status), so large result sets stream instead of
  /// materializing one giant frame.
  kJobResultBatch = 11,
  /// Server -> client: a typed job rejection or failure —
  /// StatusCode::kOverloaded (admission control), kShuttingDown
  /// (drain), kInvalidArgument (malformed submission), carried as a
  /// code + message.
  kJobError = 12,
  /// Client -> server: abandon a submitted job; the server cancels it
  /// cooperatively and reclaims its resources.
  kCancel = 13,
};

/// FNV-1a 64 over `size` bytes — the frame checksum.
uint64_t WireChecksum(const uint8_t* data, size_t size);

/// Kept only because perfbench/src/replay.cc compiles against it (see
/// the four-argument EncodePartitionBlock): `raw` is the byte count of
/// the frames encoded through it. No library code reads it.
struct CodecByteCounts {
  int64_t raw = 0;
};

/// Appends little-endian primitives to a growing payload, then seals the
/// payload into a framed message.
class WireWriter {
 public:
  void PutU8(uint8_t v) { payload_.push_back(v); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  /// IEEE-754 bit pattern; exact round trip.
  void PutDouble(double v);
  /// LEB128: 7 value bits per byte, high bit = continuation.
  void PutVarint(uint64_t v);
  /// Zigzag-mapped varint for small signed values.
  void PutVarintI64(int64_t v);
  /// u64 count followed by the values.
  void PutI32Array(const std::vector<int32_t>& values);
  /// u64 byte length followed by the bytes.
  void PutString(const std::string& s);
  void PutBytes(const uint8_t* data, size_t size);

  const std::vector<uint8_t>& payload() const { return payload_; }

  /// Wraps the accumulated payload in a header (magic, version, `type`,
  /// size, checksum) and returns the complete frame, leaving the writer
  /// empty for reuse.
  std::vector<uint8_t> SealFrame(FrameType type);

 private:
  std::vector<uint8_t> payload_;
};

/// Bounds-checked reader over a decoded frame's payload. Every getter
/// returns ParseError instead of reading past the end.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Status GetU8(uint8_t* v);
  Status GetU16(uint16_t* v);
  Status GetU32(uint32_t* v);
  Status GetU64(uint64_t* v);
  Status GetI32(int32_t* v);
  Status GetI64(int64_t* v);
  Status GetDouble(double* v);
  /// Rejects truncation and any encoding past 10 bytes / 64 value bits.
  Status GetVarint(uint64_t* v);
  Status GetVarintI64(int64_t* v);
  Status GetI32Array(std::vector<int32_t>* values);
  Status GetString(std::string* s);

  const uint8_t* cursor() const { return data_ + pos_; }
  size_t remaining() const { return size_ - pos_; }
  void Skip(size_t bytes) { pos_ += bytes; }
  bool AtEnd() const { return pos_ == size_; }
  /// Trailing bytes after the last expected field are a framing error.
  Status ExpectEnd() const;

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// A validated frame: type plus a payload view into the input buffer.
struct DecodedFrame {
  FrameType type = FrameType::kPartitionBlock;
  const uint8_t* payload = nullptr;
  size_t size = 0;
};

/// Validates magic, version, declared payload size and checksum.
/// The returned view aliases the input bytes, which must outlive it.
Result<DecodedFrame> DecodeFrame(const uint8_t* data, size_t size);
Result<DecodedFrame> DecodeFrame(const std::vector<uint8_t>& frame);
/// A temporary frame would be freed before the view is read: hold the
/// bytes in a named variable instead.
Result<DecodedFrame> DecodeFrame(std::vector<uint8_t>&&) = delete;

// ---------------------------------------------------------------------------
// Message vocabulary. One encode/decode pair per FrameType; decoders
// reject type mismatches and any structural violation.

/// One candidate assigned to a shard. `slot` is the candidate's index in
/// the coordinator's flattened per-level array — results are keyed by it,
/// so shards can reply in any order and with any subset (deadline).
/// `target` is the RHS attribute for the target kinds (kOfd/kFd/kAfd);
/// the pair fields carry the kOc pair.
struct WireCandidate {
  uint64_t slot = 0;
  uint64_t context_bits = 0;
  DependencyKind kind = DependencyKind::kOc;
  int32_t target = -1;
  int32_t pair_a = -1;
  int32_t pair_b = -1;
  bool opposite = false;
};

/// One completed validation, shipped back to the coordinator. Doubles
/// carry exact bit patterns; `removal_rows` is empty unless the run
/// collects removal sets.
struct WireOutcome {
  uint64_t slot = 0;
  /// Echo of the candidate's kind; the coordinator cross-checks it
  /// against what it asked for at `slot` and aborts on a mismatch.
  DependencyKind kind = DependencyKind::kOc;
  bool valid = false;
  bool early_exit = false;
  int64_t removal_size = 0;
  double approx_factor = 0.0;
  double interestingness = 0.0;
  /// Validation CPU seconds (merged into summed-CPU stats; exempt from
  /// the determinism contract like every timing field).
  double seconds = 0.0;
  std::vector<int32_t> removal_rows;
};

/// Payload: u64 attribute-set bits, then the partition's CSR bytes
/// exactly as StrippedPartition::SerializeTo writes them.
std::vector<uint8_t> EncodePartitionBlock(AttributeSet set,
                                          const StrippedPartition& partition);
/// Kept only for perfbench/src/replay.cc, which compiles against this
/// signature: the bool is ignored and `counts->raw` (when non-null)
/// grows by the frame's size.
std::vector<uint8_t> EncodePartitionBlock(AttributeSet set,
                                          const StrippedPartition& partition,
                                          bool, CodecByteCounts* counts);
/// `num_rows` bounds the decoded row ids; the partition is additionally
/// validated for canonical form (see StrippedPartition::Deserialize).
Result<std::pair<AttributeSet, StrippedPartition>> DecodePartitionBlock(
    const DecodedFrame& frame, int64_t num_rows);

/// Payload: u64 count, then 30 bytes per candidate.
std::vector<uint8_t> EncodeCandidateBatch(
    const std::vector<WireCandidate>& candidates);
Result<std::vector<WireCandidate>> DecodeCandidateBatch(
    const DecodedFrame& frame);

/// Payload: u64 count, then 51 bytes per outcome followed by its
/// removal-row array.
std::vector<uint8_t> EncodeResultBatch(const std::vector<WireOutcome>& outcomes);
Result<std::vector<WireOutcome>> DecodeResultBatch(const DecodedFrame& frame);

/// Rank-encoded columns only — names, cardinalities and the int32 rank
/// arrays. Dictionaries (raw values) never cross the shard seam:
/// validators are pure integer work, so the decoded table carries empty
/// dictionaries. Decoding validates every rank against its declared
/// cardinality and every column length against num_rows. Payload: i64
/// num_rows, u32 num_columns, then per column its name, i32 cardinality
/// and the i32 rank array.
std::vector<uint8_t> EncodeTableBlock(const EncodedTable& table);
Result<EncodedTable> DecodeTableBlock(const DecodedFrame& frame);

/// An empty-payload kShutdown frame.
std::vector<uint8_t> EncodeShutdown();

/// The per-shard DiscoveryStats counters a runner reports in its
/// terminal frame. Doubles are timing (exempt from the determinism
/// contract); the integer counters are pure functions of the batches
/// the shard served.
struct ShardStatsFooter {
  uint32_t shard_id = 0;
  /// Echo of ShardRunnerOptions::attempt_id — which supervised attempt
  /// produced these counters. The coordinator checks it against the
  /// attempt it is finishing so duplicate footers (a superseded attempt
  /// that still managed to answer its shutdown) are distinguishable.
  uint32_t attempt_id = 0;
  /// Frames the runner served (bases + batches + shutdown) — a cheap
  /// conversation-length cross-check for the coordinator.
  int64_t frames_served = 0;
  int64_t products_computed = 0;
  /// The runner cache's planner counters (PartitionCache::
  /// planner_derivations and the estimated/realized costs).
  int64_t planner_derivations = 0;
  int64_t planner_cost_estimated = 0;
  int64_t planner_cost_realized = 0;
  int64_t partitions_evicted = 0;
  int64_t partition_bytes_evicted = 0;
  int64_t partition_bytes_final = 0;
  int64_t partition_bytes_peak = 0;
  double partition_seconds = 0.0;
};

std::vector<uint8_t> EncodeStatsFooter(const ShardStatsFooter& footer);
Result<ShardStatsFooter> DecodeStatsFooter(const DecodedFrame& frame);

}  // namespace shard
}  // namespace aod

#endif  // AOD_SHARD_WIRE_H_
