#include "shard/wire.h"

#include <cstring>

#include "common/endian.h"

namespace aod {
namespace shard {

using endian::LoadU16;
using endian::LoadU32;
using endian::LoadU64;
using endian::StoreU16;
using endian::StoreU32;
using endian::StoreU64;

uint64_t WireChecksum(const uint8_t* data, size_t size) {
  uint64_t h = 14695981039346656037ULL;  // FNV offset basis
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

void WireWriter::PutU16(uint16_t v) { endian::AppendU16(&payload_, v); }

void WireWriter::PutU32(uint32_t v) { endian::AppendU32(&payload_, v); }

void WireWriter::PutU64(uint64_t v) { endian::AppendU64(&payload_, v); }

void WireWriter::PutDouble(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void WireWriter::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    payload_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  payload_.push_back(static_cast<uint8_t>(v));
}

void WireWriter::PutVarintI64(int64_t v) {
  PutVarint((static_cast<uint64_t>(v) << 1) ^
            static_cast<uint64_t>(v >> 63));
}

void WireWriter::PutI32Array(const std::vector<int32_t>& values) {
  PutU64(values.size());
  for (int32_t v : values) PutI32(v);
}

void WireWriter::PutString(const std::string& s) {
  PutU64(s.size());
  PutBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

void WireWriter::PutBytes(const uint8_t* data, size_t size) {
  payload_.insert(payload_.end(), data, data + size);
}

std::vector<uint8_t> WireWriter::SealFrame(FrameType type) {
  std::vector<uint8_t> frame(kFrameHeaderBytes + payload_.size());
  StoreU32(frame.data(), kWireMagic);
  StoreU16(frame.data() + 4, kWireVersion);
  StoreU16(frame.data() + 6, static_cast<uint16_t>(type));
  StoreU64(frame.data() + 8, payload_.size());
  StoreU64(frame.data() + 16, WireChecksum(payload_.data(), payload_.size()));
  if (!payload_.empty()) {
    // memcpy's pointer arguments must be non-null even for size 0, and
    // an empty vector's data() may be null (the kShutdown frame).
    std::memcpy(frame.data() + kFrameHeaderBytes, payload_.data(),
                payload_.size());
  }
  payload_.clear();
  return frame;
}

Status WireReader::GetU8(uint8_t* v) {
  if (remaining() < 1) return Status::ParseError("wire payload truncated");
  *v = data_[pos_++];
  return Status::OK();
}

Status WireReader::GetU16(uint16_t* v) {
  if (remaining() < 2) return Status::ParseError("wire payload truncated");
  *v = LoadU16(data_ + pos_);
  pos_ += 2;
  return Status::OK();
}

Status WireReader::GetU32(uint32_t* v) {
  if (remaining() < 4) return Status::ParseError("wire payload truncated");
  *v = LoadU32(data_ + pos_);
  pos_ += 4;
  return Status::OK();
}

Status WireReader::GetU64(uint64_t* v) {
  if (remaining() < 8) return Status::ParseError("wire payload truncated");
  *v = LoadU64(data_ + pos_);
  pos_ += 8;
  return Status::OK();
}

Status WireReader::GetI32(int32_t* v) {
  uint32_t u = 0;
  AOD_RETURN_NOT_OK(GetU32(&u));
  *v = static_cast<int32_t>(u);
  return Status::OK();
}

Status WireReader::GetI64(int64_t* v) {
  uint64_t u = 0;
  AOD_RETURN_NOT_OK(GetU64(&u));
  *v = static_cast<int64_t>(u);
  return Status::OK();
}

Status WireReader::GetDouble(double* v) {
  uint64_t bits = 0;
  AOD_RETURN_NOT_OK(GetU64(&bits));
  std::memcpy(v, &bits, sizeof(bits));
  return Status::OK();
}

Status WireReader::GetVarint(uint64_t* v) {
  uint64_t out = 0;
  for (int i = 0; i < 10; ++i) {
    if (remaining() < 1) return Status::ParseError("wire varint truncated");
    const uint8_t b = data_[pos_++];
    // The 10th byte holds bits 63..69 of which only bit 63 exists.
    if (i == 9 && b > 1) {
      return Status::ParseError("wire varint overflows 64 bits");
    }
    out |= static_cast<uint64_t>(b & 0x7f) << (7 * i);
    if ((b & 0x80) == 0) {
      *v = out;
      return Status::OK();
    }
  }
  return Status::ParseError("wire varint longer than 10 bytes");
}

Status WireReader::GetVarintI64(int64_t* v) {
  uint64_t u = 0;
  AOD_RETURN_NOT_OK(GetVarint(&u));
  *v = static_cast<int64_t>(u >> 1) ^ -static_cast<int64_t>(u & 1);
  return Status::OK();
}

Status WireReader::GetI32Array(std::vector<int32_t>* values) {
  uint64_t count = 0;
  AOD_RETURN_NOT_OK(GetU64(&count));
  if (count > remaining() / 4) {
    return Status::ParseError("wire array longer than its payload");
  }
  values->clear();
  values->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    int32_t v = 0;
    AOD_RETURN_NOT_OK(GetI32(&v));
    values->push_back(v);
  }
  return Status::OK();
}

Status WireReader::GetString(std::string* s) {
  uint64_t len = 0;
  AOD_RETURN_NOT_OK(GetU64(&len));
  if (len > remaining()) {
    return Status::ParseError("wire string longer than its payload");
  }
  s->assign(reinterpret_cast<const char*>(data_ + pos_),
            static_cast<size_t>(len));
  pos_ += static_cast<size_t>(len);
  return Status::OK();
}

Status WireReader::ExpectEnd() const {
  if (!AtEnd()) {
    return Status::ParseError("wire payload has trailing bytes");
  }
  return Status::OK();
}

Result<DecodedFrame> DecodeFrame(const uint8_t* data, size_t size) {
  if (size < kFrameHeaderBytes) {
    return Status::ParseError("wire frame shorter than its header");
  }
  if (LoadU32(data) != kWireMagic) {
    return Status::ParseError("wire frame magic mismatch");
  }
  const uint16_t version = LoadU16(data + 4);
  if (version != kWireVersion) {
    return Status::ParseError("unsupported wire version " +
                              std::to_string(version));
  }
  const uint16_t raw_type = LoadU16(data + 6);
  bool known = raw_type >= static_cast<uint16_t>(FrameType::kPartitionBlock) &&
               raw_type <= static_cast<uint16_t>(FrameType::kCancel);
  for (uint16_t retired : kRetiredFrameTypes) known &= raw_type != retired;
  if (!known) {
    return Status::ParseError("unknown wire frame type " +
                              std::to_string(raw_type));
  }
  const uint64_t declared = LoadU64(data + 8);
  if (declared != size - kFrameHeaderBytes) {
    return Status::ParseError("wire frame size mismatch");
  }
  const uint64_t checksum = LoadU64(data + 16);
  const uint8_t* payload = data + kFrameHeaderBytes;
  if (checksum != WireChecksum(payload, static_cast<size_t>(declared))) {
    return Status::ParseError("wire frame checksum mismatch");
  }
  DecodedFrame out;
  out.type = static_cast<FrameType>(raw_type);
  out.payload = payload;
  out.size = static_cast<size_t>(declared);
  return out;
}

Result<DecodedFrame> DecodeFrame(const std::vector<uint8_t>& frame) {
  return DecodeFrame(frame.data(), frame.size());
}

std::vector<uint8_t> EncodePartitionBlock(AttributeSet set,
                                          const StrippedPartition& partition) {
  WireWriter writer;
  writer.PutU64(set.bits());
  const std::vector<uint8_t> csr = partition.Serialize();
  writer.PutBytes(csr.data(), csr.size());
  return writer.SealFrame(FrameType::kPartitionBlock);
}

std::vector<uint8_t> EncodePartitionBlock(AttributeSet set,
                                          const StrippedPartition& partition,
                                          bool, CodecByteCounts* counts) {
  std::vector<uint8_t> frame = EncodePartitionBlock(set, partition);
  if (counts != nullptr) counts->raw += static_cast<int64_t>(frame.size());
  return frame;
}

Result<std::pair<AttributeSet, StrippedPartition>> DecodePartitionBlock(
    const DecodedFrame& frame, int64_t num_rows) {
  if (frame.type != FrameType::kPartitionBlock) {
    return Status::ParseError("frame is not a partition block");
  }
  WireReader reader(frame.payload, frame.size);
  uint64_t bits = 0;
  AOD_RETURN_NOT_OK(reader.GetU64(&bits));
  size_t consumed = 0;
  AOD_ASSIGN_OR_RETURN(
      StrippedPartition partition,
      StrippedPartition::Deserialize(reader.cursor(), reader.remaining(),
                                     num_rows, &consumed));
  reader.Skip(consumed);
  AOD_RETURN_NOT_OK(reader.ExpectEnd());
  return std::make_pair(AttributeSet(bits), std::move(partition));
}

namespace {

Status CheckedKind(uint8_t v, DependencyKind* out) {
  if (v >= kNumDependencyKinds) {
    return Status::ParseError("unknown dependency kind id " +
                              std::to_string(static_cast<int>(v)));
  }
  *out = static_cast<DependencyKind>(v);
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodeCandidateBatch(
    const std::vector<WireCandidate>& candidates) {
  WireWriter writer;
  writer.PutU64(candidates.size());
  for (const WireCandidate& c : candidates) {
    writer.PutU64(c.slot);
    writer.PutU64(c.context_bits);
    writer.PutU8(static_cast<uint8_t>(c.kind));
    writer.PutI32(c.target);
    writer.PutI32(c.pair_a);
    writer.PutI32(c.pair_b);
    writer.PutU8(c.opposite ? 1 : 0);
  }
  return writer.SealFrame(FrameType::kCandidateBatch);
}

Result<std::vector<WireCandidate>> DecodeCandidateBatch(
    const DecodedFrame& frame) {
  if (frame.type != FrameType::kCandidateBatch) {
    return Status::ParseError("frame is not a candidate batch");
  }
  WireReader reader(frame.payload, frame.size);
  uint64_t count = 0;
  AOD_RETURN_NOT_OK(reader.GetU64(&count));
  // Per-candidate encoding is 30 bytes (2 u64 + 3 i32 + 2 u8).
  if (count > reader.remaining() / 30) {
    return Status::ParseError("candidate batch longer than its payload");
  }
  std::vector<WireCandidate> out;
  out.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    WireCandidate c;
    uint8_t kind = 0;
    uint8_t opposite = 0;
    AOD_RETURN_NOT_OK(reader.GetU64(&c.slot));
    AOD_RETURN_NOT_OK(reader.GetU64(&c.context_bits));
    AOD_RETURN_NOT_OK(reader.GetU8(&kind));
    AOD_RETURN_NOT_OK(reader.GetI32(&c.target));
    AOD_RETURN_NOT_OK(reader.GetI32(&c.pair_a));
    AOD_RETURN_NOT_OK(reader.GetI32(&c.pair_b));
    AOD_RETURN_NOT_OK(reader.GetU8(&opposite));
    AOD_RETURN_NOT_OK(CheckedKind(kind, &c.kind));
    c.opposite = opposite != 0;
    out.push_back(c);
  }
  AOD_RETURN_NOT_OK(reader.ExpectEnd());
  return out;
}

std::vector<uint8_t> EncodeResultBatch(
    const std::vector<WireOutcome>& outcomes) {
  WireWriter writer;
  writer.PutU64(outcomes.size());
  for (const WireOutcome& o : outcomes) {
    writer.PutU64(o.slot);
    writer.PutU8(static_cast<uint8_t>(o.kind));
    writer.PutU8(o.valid ? 1 : 0);
    writer.PutU8(o.early_exit ? 1 : 0);
    writer.PutI64(o.removal_size);
    writer.PutDouble(o.approx_factor);
    writer.PutDouble(o.interestingness);
    writer.PutDouble(o.seconds);
    writer.PutI32Array(o.removal_rows);
  }
  return writer.SealFrame(FrameType::kResultBatch);
}

Result<std::vector<WireOutcome>> DecodeResultBatch(const DecodedFrame& frame) {
  if (frame.type != FrameType::kResultBatch) {
    return Status::ParseError("frame is not a result batch");
  }
  WireReader reader(frame.payload, frame.size);
  std::vector<WireOutcome> out;
  uint64_t count = 0;
  AOD_RETURN_NOT_OK(reader.GetU64(&count));
  // 51 bytes per outcome before its (possibly empty) removal-row array.
  if (count > reader.remaining() / 51) {
    return Status::ParseError("result batch longer than its payload");
  }
  out.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    WireOutcome o;
    uint8_t kind = 0;
    uint8_t valid = 0;
    uint8_t early_exit = 0;
    AOD_RETURN_NOT_OK(reader.GetU64(&o.slot));
    AOD_RETURN_NOT_OK(reader.GetU8(&kind));
    AOD_RETURN_NOT_OK(CheckedKind(kind, &o.kind));
    AOD_RETURN_NOT_OK(reader.GetU8(&valid));
    AOD_RETURN_NOT_OK(reader.GetU8(&early_exit));
    AOD_RETURN_NOT_OK(reader.GetI64(&o.removal_size));
    AOD_RETURN_NOT_OK(reader.GetDouble(&o.approx_factor));
    AOD_RETURN_NOT_OK(reader.GetDouble(&o.interestingness));
    AOD_RETURN_NOT_OK(reader.GetDouble(&o.seconds));
    AOD_RETURN_NOT_OK(reader.GetI32Array(&o.removal_rows));
    o.valid = valid != 0;
    o.early_exit = early_exit != 0;
    out.push_back(std::move(o));
  }
  AOD_RETURN_NOT_OK(reader.ExpectEnd());
  return out;
}

std::vector<uint8_t> EncodeTableBlock(const EncodedTable& table) {
  WireWriter writer;
  writer.PutI64(table.num_rows());
  writer.PutU32(static_cast<uint32_t>(table.num_columns()));
  for (int c = 0; c < table.num_columns(); ++c) {
    const EncodedColumn& col = table.column(c);
    writer.PutString(col.name);
    writer.PutI32(col.cardinality);
    writer.PutI32Array(col.ranks);
  }
  return writer.SealFrame(FrameType::kTableBlock);
}

Result<EncodedTable> DecodeTableBlock(const DecodedFrame& frame) {
  if (frame.type != FrameType::kTableBlock) {
    return Status::ParseError("frame is not a table block");
  }
  WireReader reader(frame.payload, frame.size);
  int64_t num_rows = 0;
  uint32_t num_columns = 0;
  AOD_RETURN_NOT_OK(reader.GetI64(&num_rows));
  AOD_RETURN_NOT_OK(reader.GetU32(&num_columns));
  if (num_rows < 0) return Status::ParseError("negative table row count");
  if (num_columns > static_cast<uint32_t>(AttributeSet::kMaxAttributes)) {
    return Status::ParseError("table block exceeds the attribute limit");
  }
  std::vector<EncodedColumn> columns;
  columns.reserve(num_columns);
  for (uint32_t c = 0; c < num_columns; ++c) {
    EncodedColumn col;
    AOD_RETURN_NOT_OK(reader.GetString(&col.name));
    AOD_RETURN_NOT_OK(reader.GetI32(&col.cardinality));
    AOD_RETURN_NOT_OK(reader.GetI32Array(&col.ranks));
    if (static_cast<int64_t>(col.ranks.size()) != num_rows) {
      return Status::ParseError("column length disagrees with row count");
    }
    if (col.cardinality < 0 ||
        static_cast<int64_t>(col.cardinality) > num_rows) {
      return Status::ParseError("column cardinality out of range");
    }
    for (int32_t rank : col.ranks) {
      if (rank < 0 || rank >= col.cardinality) {
        return Status::ParseError("rank outside its declared cardinality");
      }
    }
    columns.push_back(std::move(col));
  }
  AOD_RETURN_NOT_OK(reader.ExpectEnd());
  return EncodedTable(std::move(columns), num_rows);
}

std::vector<uint8_t> EncodeShutdown() {
  WireWriter writer;
  return writer.SealFrame(FrameType::kShutdown);
}

std::vector<uint8_t> EncodeStatsFooter(const ShardStatsFooter& footer) {
  WireWriter writer;
  writer.PutU32(footer.shard_id);
  writer.PutU32(footer.attempt_id);
  writer.PutI64(footer.frames_served);
  writer.PutI64(footer.products_computed);
  writer.PutI64(footer.planner_derivations);
  writer.PutI64(footer.planner_cost_estimated);
  writer.PutI64(footer.planner_cost_realized);
  writer.PutI64(footer.partitions_evicted);
  writer.PutI64(footer.partition_bytes_evicted);
  writer.PutI64(footer.partition_bytes_final);
  writer.PutI64(footer.partition_bytes_peak);
  writer.PutDouble(footer.partition_seconds);
  return writer.SealFrame(FrameType::kStatsFooter);
}

Result<ShardStatsFooter> DecodeStatsFooter(const DecodedFrame& frame) {
  if (frame.type != FrameType::kStatsFooter) {
    return Status::ParseError("frame is not a stats footer");
  }
  WireReader reader(frame.payload, frame.size);
  ShardStatsFooter footer;
  AOD_RETURN_NOT_OK(reader.GetU32(&footer.shard_id));
  AOD_RETURN_NOT_OK(reader.GetU32(&footer.attempt_id));
  AOD_RETURN_NOT_OK(reader.GetI64(&footer.frames_served));
  AOD_RETURN_NOT_OK(reader.GetI64(&footer.products_computed));
  AOD_RETURN_NOT_OK(reader.GetI64(&footer.planner_derivations));
  AOD_RETURN_NOT_OK(reader.GetI64(&footer.planner_cost_estimated));
  AOD_RETURN_NOT_OK(reader.GetI64(&footer.planner_cost_realized));
  AOD_RETURN_NOT_OK(reader.GetI64(&footer.partitions_evicted));
  AOD_RETURN_NOT_OK(reader.GetI64(&footer.partition_bytes_evicted));
  AOD_RETURN_NOT_OK(reader.GetI64(&footer.partition_bytes_final));
  AOD_RETURN_NOT_OK(reader.GetI64(&footer.partition_bytes_peak));
  AOD_RETURN_NOT_OK(reader.GetDouble(&footer.partition_seconds));
  AOD_RETURN_NOT_OK(reader.ExpectEnd());
  if (footer.frames_served < 0 || footer.products_computed < 0 ||
      footer.planner_derivations < 0 || footer.planner_cost_estimated < 0 ||
      footer.planner_cost_realized < 0 || footer.partitions_evicted < 0 ||
      footer.partition_bytes_evicted < 0 || footer.partition_bytes_final < 0 ||
      footer.partition_bytes_peak < 0) {
    return Status::ParseError("negative counter in stats footer");
  }
  return footer;
}

}  // namespace shard
}  // namespace aod
