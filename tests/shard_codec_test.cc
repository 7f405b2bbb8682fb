// The payload decoders of the shard wire (one fixed-width layout per
// frame type).
//
// The contract under test has two legs. (1) Losslessness: every message
// decodes to an object identical to the one encoded, in a frame of
// exactly the documented size. (2) Hostility: a corrupted, truncated or
// structurally invalid payload is a typed ParseError — never an
// out-of-bounds read (the suite runs under ASan/UBSan in CI), a crash,
// or a silently non-canonical decode.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "data/encoder.h"
#include "gen/random.h"
#include "od/dependency_kind.h"
#include "partition/stripped_partition.h"
#include "shard/wire.h"
#include "test_util.h"

namespace aod {
namespace {

using shard::DecodedFrame;
using shard::DecodeFrame;
using shard::WireCandidate;
using shard::WireOutcome;

/// Bytes must outlive the DecodedFrame view (see shard_wire_test.cc).
struct HeldFrame {
  std::vector<uint8_t> bytes;
  Result<DecodedFrame> decoded;
  explicit HeldFrame(std::vector<uint8_t> b)
      : bytes(std::move(b)), decoded(DecodeFrame(bytes)) {}
  bool ok() const { return decoded.ok(); }
  const DecodedFrame& operator*() const { return *decoded; }
};

/// Sets payload byte `i` to `value` and re-seals the checksum, so the
/// corruption reaches the *payload* decoder instead of being absorbed by
/// the frame checksum — the adversary this models controls the whole
/// frame.
std::vector<uint8_t> SetPayloadByteResealed(const std::vector<uint8_t>& frame,
                                            size_t i, uint8_t value) {
  std::vector<uint8_t> bad = frame;
  bad[shard::kFrameHeaderBytes + i] = value;
  const uint64_t checksum = shard::WireChecksum(
      bad.data() + shard::kFrameHeaderBytes,
      bad.size() - shard::kFrameHeaderBytes);
  for (int b = 0; b < 8; ++b) {
    bad[16 + static_cast<size_t>(b)] =
        static_cast<uint8_t>((checksum >> (8 * b)) & 0xff);
  }
  return bad;
}

/// Flips payload byte `i` and re-seals the checksum.
std::vector<uint8_t> CorruptPayloadResealed(const std::vector<uint8_t>& frame,
                                            size_t i) {
  return SetPayloadByteResealed(
      frame, i,
      static_cast<uint8_t>(frame[shard::kFrameHeaderBytes + i] ^ 0x5a));
}

/// Runs `decode` on every single-byte resealed corruption of `frame`'s
/// payload: each one is either a typed ParseError or a decode that
/// `accepted` vouches for.
template <typename Decode, typename Accepted>
void ExpectEveryByteTyped(const std::vector<uint8_t>& frame,
                          const Decode& decode, const Accepted& accepted) {
  for (size_t i = 0; i < frame.size() - shard::kFrameHeaderBytes; ++i) {
    HeldFrame bad(CorruptPayloadResealed(frame, i));
    ASSERT_TRUE(bad.ok()) << "reseal failed at byte " << i;
    auto decoded = decode(*bad);
    if (decoded.ok()) {
      EXPECT_TRUE(accepted(*decoded)) << "byte " << i;
    } else {
      EXPECT_EQ(decoded.status().code(), StatusCode::kParseError)
          << "byte " << i << ": " << decoded.status().ToString();
    }
  }
}

// ------------------------------------------------------ partitions --

void ExpectPartitionRoundTrip(const StrippedPartition& p, int64_t num_rows) {
  const AttributeSet set = AttributeSet::Of({0, 2});
  HeldFrame frame(shard::EncodePartitionBlock(set, p));
  ASSERT_TRUE(frame.ok());
  // The layout is the attribute set followed by the CSR bytes verbatim.
  EXPECT_EQ(frame.bytes.size(),
            shard::kFrameHeaderBytes + 8 + p.Serialize().size());
  auto back = shard::DecodePartitionBlock(*frame, num_rows);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->first.bits(), set.bits());
  EXPECT_EQ(back->second.Serialize(), p.Serialize());

  // The byte-counting overload ships the identical frame and counts it.
  shard::CodecByteCounts counts;
  EXPECT_EQ(shard::EncodePartitionBlock(set, p, true, &counts), frame.bytes);
  EXPECT_EQ(counts.raw, static_cast<int64_t>(frame.bytes.size()));
}

TEST(ShardCodecTest, PartitionEdgeShapesRoundTrip) {
  // Empty partition (no classes), the degenerate single-row table, and
  // the whole-relation partition (one class covering everything).
  ExpectPartitionRoundTrip(StrippedPartition(), 1);
  ExpectPartitionRoundTrip(StrippedPartition(), 100);
  ExpectPartitionRoundTrip(StrippedPartition::WholeRelation(2), 2);
  ExpectPartitionRoundTrip(StrippedPartition::WholeRelation(257), 257);
  // Many two-row classes.
  std::vector<std::vector<int32_t>> classes;
  for (int32_t r = 0; r < 64; r += 2) classes.push_back({r, r + 1});
  StrippedPartition pairs = StrippedPartition::FromClasses(classes);
  pairs.Normalize();
  ExpectPartitionRoundTrip(pairs, 64);
  // Interleaved classes: large within-class gaps.
  StrippedPartition striped = StrippedPartition::FromClasses(
      {{0, 100, 200, 300}, {1, 101, 201, 301}, {2, 102, 202}});
  striped.Normalize();
  ExpectPartitionRoundTrip(striped, 302);
}

class ShardCodecFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardCodecFuzzTest, RandomPartitionsRoundTrip) {
  Rng rng(GetParam() * 7919 + 1);
  const int64_t rows = 1 + static_cast<int64_t>(rng.UniformInt(0, 400));
  // Half the seeds stay low-cardinality (long classes), half push to
  // many small classes.
  const int64_t cardinality =
      1 + rng.UniformInt(0, GetParam() % 2 == 0 ? 12 : 160);
  EncodedTable t = testing_util::RandomEncodedTable(
      rows, 3, cardinality, GetParam() * 131 + 7);
  PartitionScratch scratch(rows);
  StrippedPartition a = StrippedPartition::FromColumn(t.column(0));
  StrippedPartition b = StrippedPartition::FromColumn(t.column(1));
  ExpectPartitionRoundTrip(a, rows);
  ExpectPartitionRoundTrip(a.Product(b, rows, &scratch), rows);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardCodecFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(ShardCodecTest, CorruptedPartitionBlockIsTypedAtEveryByte) {
  // Low and mid cardinality: long classes, then many short ones.
  for (int64_t cardinality : {4, 100}) {
    SCOPED_TRACE("cardinality " + std::to_string(cardinality));
    EncodedTable t = testing_util::RandomEncodedTable(300, 1, cardinality,
                                                      17 + cardinality);
    StrippedPartition p = StrippedPartition::FromColumn(t.column(0));
    const std::vector<uint8_t> frame =
        shard::EncodePartitionBlock(AttributeSet::Of({0}), p);
    HeldFrame pristine(frame);
    ASSERT_TRUE(pristine.ok());
    ASSERT_TRUE(shard::DecodePartitionBlock(*pristine, 300).ok());
    // A mutation that survives decoding only moved the attribute set or
    // rows within canonical form.
    ExpectEveryByteTyped(
        frame,
        [](const DecodedFrame& f) {
          return shard::DecodePartitionBlock(f, 300);
        },
        [](const std::pair<AttributeSet, StrippedPartition>& block) {
          return block.second.IsCanonical();
        });
  }
}

// --------------------------------------------- candidates + results --

std::vector<WireCandidate> RandomCandidates(Rng* rng, size_t n) {
  std::vector<WireCandidate> out;
  uint64_t slot = 0;
  for (size_t i = 0; i < n; ++i) {
    WireCandidate c;
    slot += static_cast<uint64_t>(rng->UniformInt(0, 9));
    c.slot = slot;
    c.context_bits = static_cast<uint64_t>(rng->UniformInt(0, 1 << 20));
    c.kind = static_cast<DependencyKind>(rng->UniformInt(0, 3));
    if (c.kind == DependencyKind::kOc) {
      c.pair_a = static_cast<int32_t>(rng->UniformInt(0, 62));
      c.pair_b = c.pair_a + 1;
      c.opposite = rng->UniformInt(0, 1) == 0;
    } else {
      c.target = static_cast<int32_t>(rng->UniformInt(0, 63));
    }
    out.push_back(c);
  }
  return out;
}

TEST(ShardCodecTest, CandidateBatchRoundTrips) {
  Rng rng(99);
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{300}}) {
    const std::vector<WireCandidate> batch = RandomCandidates(&rng, n);
    HeldFrame frame(shard::EncodeCandidateBatch(batch));
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame.bytes.size(), shard::kFrameHeaderBytes + 8 + 30 * n);
    auto back = shard::DecodeCandidateBatch(*frame);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_EQ(back->size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ((*back)[i].slot, batch[i].slot);
      EXPECT_EQ((*back)[i].context_bits, batch[i].context_bits);
      EXPECT_EQ((*back)[i].kind, batch[i].kind);
      EXPECT_EQ((*back)[i].target, batch[i].target);
      EXPECT_EQ((*back)[i].pair_a, batch[i].pair_a);
      EXPECT_EQ((*back)[i].pair_b, batch[i].pair_b);
      EXPECT_EQ((*back)[i].opposite, batch[i].opposite);
    }
  }
}

std::vector<WireOutcome> RandomOutcomes(Rng* rng, size_t n, bool rows) {
  std::vector<WireOutcome> out;
  uint64_t slot = 0;
  for (size_t i = 0; i < n; ++i) {
    WireOutcome o;
    slot += static_cast<uint64_t>(rng->UniformInt(0, 5));
    o.slot = slot;
    o.kind = static_cast<DependencyKind>(rng->UniformInt(0, 3));
    o.valid = rng->UniformInt(0, 1) == 0;
    o.early_exit = rng->UniformInt(0, 1) == 0;
    o.removal_size = rng->UniformInt(0, 1000);
    o.approx_factor = 0.1 + static_cast<double>(rng->UniformInt(0, 97)) / 970;
    o.interestingness = 1.0 / (1.0 + static_cast<double>(i));
    o.seconds = 3e-7 * static_cast<double>(rng->UniformInt(0, 100));
    if (rows) {
      int32_t row = 0;
      for (int r = 0; r < rng->UniformInt(0, 20); ++r) {
        row += static_cast<int32_t>(rng->UniformInt(0, 40));
        o.removal_rows.push_back(row);
      }
    }
    out.push_back(o);
  }
  return out;
}

TEST(ShardCodecTest, ResultBatchRoundTripsBitExactly) {
  Rng rng(1234);
  for (size_t n : {size_t{0}, size_t{1}, size_t{5}, size_t{200}}) {
    for (bool rows : {false, true}) {
      const std::vector<WireOutcome> outcomes = RandomOutcomes(&rng, n, rows);
      HeldFrame frame(shard::EncodeResultBatch(outcomes));
      ASSERT_TRUE(frame.ok());
      size_t expected_bytes = shard::kFrameHeaderBytes + 8;
      for (const WireOutcome& o : outcomes) {
        expected_bytes += 51 + 4 * o.removal_rows.size();
      }
      EXPECT_EQ(frame.bytes.size(), expected_bytes);
      auto back = shard::DecodeResultBatch(*frame);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      ASSERT_EQ(back->size(), n);
      for (size_t i = 0; i < n; ++i) {
        const WireOutcome& got = (*back)[i];
        EXPECT_EQ(got.slot, outcomes[i].slot);
        EXPECT_EQ(got.kind, outcomes[i].kind);
        EXPECT_EQ(got.valid, outcomes[i].valid);
        EXPECT_EQ(got.early_exit, outcomes[i].early_exit);
        EXPECT_EQ(got.removal_size, outcomes[i].removal_size);
        // Doubles must survive bit-exactly.
        EXPECT_EQ(got.approx_factor, outcomes[i].approx_factor);
        EXPECT_EQ(got.interestingness, outcomes[i].interestingness);
        EXPECT_EQ(got.seconds, outcomes[i].seconds);
        EXPECT_EQ(got.removal_rows, outcomes[i].removal_rows);
      }
    }
  }
}

TEST(ShardCodecTest, CorruptedBatchesAreTypedAtEveryByte) {
  // Accepted mutations are the ones that only changed field values; the
  // point is a typed error for everything else, no OOB and no crash.
  Rng rng(555);
  ExpectEveryByteTyped(
      shard::EncodeCandidateBatch(RandomCandidates(&rng, 40)),
      [](const DecodedFrame& f) { return shard::DecodeCandidateBatch(f); },
      [](const std::vector<WireCandidate>& batch) {
        return batch.size() == 40;
      });
  ExpectEveryByteTyped(
      shard::EncodeResultBatch(RandomOutcomes(&rng, 30, true)),
      [](const DecodedFrame& f) { return shard::DecodeResultBatch(f); },
      [](const std::vector<WireOutcome>& outcomes) {
        return outcomes.size() == 30;
      });
}

TEST(ShardCodecTest, UnknownKindIdsAreTyped) {
  // Candidate body: u64 count, then 30-byte records with the kind byte
  // 16 bytes in (after slot + context). Every id outside the four known
  // kinds must be a typed rejection naming the id.
  Rng rng(808);
  const std::vector<uint8_t> candidates =
      shard::EncodeCandidateBatch(RandomCandidates(&rng, 3));
  const size_t candidate_kind_at = 8 + 16;
  for (uint8_t id : {uint8_t{4}, uint8_t{17}, uint8_t{255}}) {
    HeldFrame bad(SetPayloadByteResealed(candidates, candidate_kind_at, id));
    ASSERT_TRUE(bad.ok());
    auto r = shard::DecodeCandidateBatch(*bad);
    ASSERT_FALSE(r.ok()) << "kind id " << static_cast<int>(id) << " parsed";
    EXPECT_NE(r.status().message().find("unknown dependency kind id " +
                                        std::to_string(id)),
              std::string::npos)
        << r.status().ToString();
  }

  // Outcome body: u64 count, then slot + the kind byte.
  const std::vector<uint8_t> outcomes =
      shard::EncodeResultBatch(RandomOutcomes(&rng, 2, false));
  const size_t outcome_kind_at = 8 + 8;
  for (uint8_t id : {uint8_t{4}, uint8_t{9}}) {
    HeldFrame bad(SetPayloadByteResealed(outcomes, outcome_kind_at, id));
    ASSERT_TRUE(bad.ok());
    auto r = shard::DecodeResultBatch(*bad);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("unknown dependency kind id"),
              std::string::npos)
        << r.status().ToString();
  }
}

// ----------------------------------------------------------- tables --

TEST(ShardCodecTest, TableBlockRoundTripsAcrossCardinalities) {
  // Cardinalities from a constant column up past 2^16; a single-row
  // table pins the smallest shape.
  for (int64_t cardinality : {1, 2, 255, 256, 257, 65535, 65536, 70000}) {
    const int64_t rows = cardinality > 1000 ? cardinality + 10 : 400;
    EncodedTable t = testing_util::RandomEncodedTable(
        rows, 2, cardinality, static_cast<uint64_t>(cardinality) * 3 + 1);
    HeldFrame frame(shard::EncodeTableBlock(t));
    ASSERT_TRUE(frame.ok());
    Result<EncodedTable> back = shard::DecodeTableBlock(*frame);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_EQ(back->num_columns(), t.num_columns());
    for (int c = 0; c < t.num_columns(); ++c) {
      EXPECT_EQ(back->ranks(c), t.ranks(c)) << "cardinality " << cardinality;
      EXPECT_EQ(back->column(c).cardinality, t.column(c).cardinality);
    }
  }
  EncodedTable single = testing_util::RandomEncodedTable(1, 3, 1, 9);
  HeldFrame frame(shard::EncodeTableBlock(single));
  ASSERT_TRUE(frame.ok());
  Result<EncodedTable> back = shard::DecodeTableBlock(*frame);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 1);
}

TEST(ShardCodecTest, CorruptedTableBlockIsTypedAtEveryByte) {
  // Ranks are validated against cardinality and num_rows, so most
  // mutations are typed rejections; the rest only renamed a column or
  // moved rank values within their declared domain.
  EncodedTable t = testing_util::RandomEncodedTable(150, 3, 5, 77);
  ExpectEveryByteTyped(
      shard::EncodeTableBlock(t),
      [](const DecodedFrame& f) { return shard::DecodeTableBlock(f); },
      [&t](const EncodedTable& back) {
        return back.num_rows() == t.num_rows() &&
               back.num_columns() == t.num_columns();
      });
}

// ----------------------------------------------- varint primitives --

TEST(ShardCodecTest, VarintRoundTripsAndRejectsOverlong) {
  shard::WireWriter writer;
  const uint64_t values[] = {0,    1,      127,        128,
                             300,  16383,  16384,      (1ull << 32) - 1,
                             1ull << 32,   UINT64_MAX, UINT64_MAX - 1};
  for (uint64_t v : values) writer.PutVarint(v);
  const int64_t signed_values[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  for (int64_t v : signed_values) writer.PutVarintI64(v);

  shard::WireReader reader(writer.payload().data(), writer.payload().size());
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(reader.GetVarint(&got).ok());
    EXPECT_EQ(got, v);
  }
  for (int64_t v : signed_values) {
    int64_t got = 0;
    ASSERT_TRUE(reader.GetVarintI64(&got).ok());
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(reader.AtEnd());

  // Truncated: continuation bit set on the final byte.
  const uint8_t truncated[] = {0x80};
  shard::WireReader r1(truncated, 1);
  uint64_t out = 0;
  EXPECT_FALSE(r1.GetVarint(&out).ok());

  // Overlong: 10 continuation bytes and an 11th that would be needed.
  std::vector<uint8_t> overlong(11, 0x80);
  overlong.back() = 0x01;
  shard::WireReader r2(overlong.data(), overlong.size());
  EXPECT_FALSE(r2.GetVarint(&out).ok());

  // 65-bit value: the 10th byte carries more than the one legal bit.
  std::vector<uint8_t> wide(9, 0xff);
  wide.push_back(0x02);
  shard::WireReader r3(wide.data(), wide.size());
  EXPECT_FALSE(r3.GetVarint(&out).ok());
}

}  // namespace
}  // namespace aod
