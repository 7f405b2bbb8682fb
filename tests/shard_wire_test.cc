// The shard wire format: lossless canonical round-trip of partitions,
// candidate batches and result batches, plus rejection of anything
// corrupted, truncated, misversioned or structurally invalid — the
// cross-shard determinism contract is only as strong as the decoder's
// refusal to accept a partition a local derivation could never produce.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "data/encoder.h"
#include "gen/random.h"
#include "partition/partition_cache.h"
#include "partition/stripped_partition.h"
#include "shard/channel.h"
#include "shard/coordinator.h"
#include "shard/wire.h"
#include "test_util.h"

namespace aod {
namespace {

using shard::DecodedFrame;
using shard::DecodeFrame;

/// DecodeFrame returns a view that aliases its input buffer, so the
/// bytes must outlive the view — this holder pins that rule for tests
/// that decode a just-encoded temporary (ASan caught the dangling
/// variant of this pattern).
struct HeldFrame {
  std::vector<uint8_t> bytes;
  Result<DecodedFrame> decoded;
  explicit HeldFrame(std::vector<uint8_t> b)
      : bytes(std::move(b)), decoded(DecodeFrame(bytes)) {}
  bool ok() const { return decoded.ok(); }
  const DecodedFrame& operator*() const { return *decoded; }
};
using shard::FrameType;
using shard::InProcessChannel;
using shard::WireCandidate;
using shard::WireOutcome;

void ExpectRoundTrip(const StrippedPartition& p, int64_t num_rows) {
  std::vector<uint8_t> bytes = p.Serialize();
  size_t consumed = 0;
  Result<StrippedPartition> back =
      StrippedPartition::Deserialize(bytes.data(), bytes.size(), num_rows,
                                     &consumed);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(back->row_ids(), p.row_ids());
  EXPECT_EQ(back->class_offsets(), p.class_offsets());
  EXPECT_EQ(back->rows_covered(), p.rows_covered());
  if (back->num_classes() > 0) {
    EXPECT_TRUE(back->IsCanonical());
  }
  // Re-encoding the decoded partition reproduces the original bytes —
  // the property a cross-shard reducer hashes on.
  EXPECT_EQ(back->Serialize(), bytes);
}

// ------------------------------------------------- partition round trip --

TEST(ShardWireTest, EmptyAndWholeRelationRoundTrip) {
  ExpectRoundTrip(StrippedPartition(), 10);
  ExpectRoundTrip(StrippedPartition::WholeRelation(6), 6);
}

// Property: FromColumn and arbitrary Product chains survive the wire
// bit-exactly, across random tables.
class ShardWirePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardWirePropertyTest, RandomPartitionsRoundTrip) {
  Rng rng(GetParam());
  const int64_t rows = 40 + static_cast<int64_t>(rng.UniformInt(0, 160));
  const int cols = 4;
  const int64_t cardinality = 1 + rng.UniformInt(1, 8);
  EncodedTable t = testing_util::RandomEncodedTable(
      rows, cols, cardinality, GetParam() * 977 + 13);

  std::vector<StrippedPartition> singles;
  for (int c = 0; c < cols; ++c) {
    singles.push_back(StrippedPartition::FromColumn(t.column(c)));
    ExpectRoundTrip(singles.back(), rows);
  }
  PartitionScratch scratch(rows);
  for (int a = 0; a < cols; ++a) {
    for (int b = a + 1; b < cols; ++b) {
      StrippedPartition pair =
          singles[static_cast<size_t>(a)].Product(
              singles[static_cast<size_t>(b)], rows, &scratch);
      ExpectRoundTrip(pair, rows);
      for (int c = 0; c < cols; ++c) {
        if (c == a || c == b) continue;
        ExpectRoundTrip(
            pair.Product(singles[static_cast<size_t>(c)], rows, &scratch),
            rows);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardWirePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------------------------- partition rejection --

TEST(ShardWireTest, TruncatedPartitionRejectedAtEveryLength) {
  EncodedTable t = testing_util::RandomEncodedTable(30, 2, 3, 5);
  StrippedPartition p = StrippedPartition::FromColumn(t.column(0));
  ASSERT_GT(p.num_classes(), 0);
  std::vector<uint8_t> bytes = p.Serialize();
  for (size_t len = 0; len < bytes.size(); ++len) {
    Result<StrippedPartition> r =
        StrippedPartition::Deserialize(bytes.data(), len, 30);
    EXPECT_FALSE(r.ok()) << "prefix of " << len << " bytes accepted";
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }
}

// Little-endian append helpers for hand-crafting invalid payloads.
void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}
void PutI32(std::vector<uint8_t>* out, int32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(
        (static_cast<uint32_t>(v) >> (8 * i)) & 0xff));
  }
}
std::vector<uint8_t> EncodeRaw(const std::vector<int32_t>& offsets,
                               const std::vector<int32_t>& rows,
                               uint64_t classes, uint64_t covered) {
  std::vector<uint8_t> out;
  PutU64(&out, classes);
  PutU64(&out, covered);
  for (int32_t v : offsets) PutI32(&out, v);
  for (int32_t v : rows) PutI32(&out, v);
  return out;
}

TEST(ShardWireTest, StructurallyInvalidPartitionsRejected) {
  auto expect_reject = [](const std::vector<uint8_t>& bytes, int64_t rows,
                          const char* what) {
    Result<StrippedPartition> r =
        StrippedPartition::Deserialize(bytes.data(), bytes.size(), rows);
    EXPECT_FALSE(r.ok()) << what;
  };
  // Singleton class: offsets ascend by 1.
  expect_reject(EncodeRaw({0, 1}, {0}, 1, 1), 10, "singleton class");
  // Offsets not starting at zero.
  expect_reject(EncodeRaw({1, 3}, {0, 1}, 1, 2), 10, "offset base != 0");
  // Offsets not covering the row arena.
  expect_reject(EncodeRaw({0, 2}, {0, 1, 2}, 1, 3), 10, "offset/row gap");
  // Row id out of table range.
  expect_reject(EncodeRaw({0, 2}, {0, 11}, 1, 2), 10, "row out of range");
  // Negative row id.
  expect_reject(EncodeRaw({0, 2}, {-1, 3}, 1, 2), 10, "negative row");
  // Row in two classes.
  expect_reject(EncodeRaw({0, 2, 4}, {0, 1, 1, 2}, 2, 4), 10,
                "overlapping classes");
  // Rows descending within a class (not canonical).
  expect_reject(EncodeRaw({0, 2}, {3, 1}, 1, 2), 10, "rows descending");
  // Classes not ordered by smallest row id (not canonical).
  expect_reject(EncodeRaw({0, 2, 4}, {4, 5, 0, 1}, 2, 4), 10,
                "class order not canonical");
  // More covered rows than the table holds.
  expect_reject(EncodeRaw({0, 2}, {0, 1}, 1, 2), 1, "covers > table");
  // Class/row counts inconsistent.
  expect_reject(EncodeRaw({}, {}, 0, 4), 10, "rows without classes");
}

TEST(ShardWireTest, NonCanonicalLocalPartitionIsRejectedOnDecode) {
  // FromClasses keeps the given (non-canonical) order; the wire decoder
  // must refuse it even though encoding it succeeds.
  StrippedPartition p =
      StrippedPartition::FromClasses({{4, 5}, {0, 1}});
  ASSERT_FALSE(p.IsCanonical());
  std::vector<uint8_t> bytes = p.Serialize();
  EXPECT_FALSE(
      StrippedPartition::Deserialize(bytes.data(), bytes.size(), 10).ok());
  p.Normalize();
  ExpectRoundTrip(p, 10);
}

// ------------------------------------------------------ frame layer --

TEST(ShardWireTest, FrameCorruptionDetectedAtEveryByte) {
  EncodedTable t = testing_util::RandomEncodedTable(20, 2, 3, 9);
  StrippedPartition p = StrippedPartition::FromColumn(t.column(0));
  const std::vector<uint8_t> frame =
      shard::EncodePartitionBlock(AttributeSet::Of({0}), p);

  // The pristine frame decodes.
  Result<DecodedFrame> good = DecodeFrame(frame);
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(shard::DecodePartitionBlock(*good, 20).ok());

  // Any single corrupted byte — header or payload — must be caught by
  // magic/version/size/checksum validation or by payload validation.
  for (size_t i = 0; i < frame.size(); ++i) {
    std::vector<uint8_t> bad = frame;
    bad[i] ^= 0x5a;
    Result<DecodedFrame> decoded = DecodeFrame(bad);
    if (!decoded.ok()) continue;
    EXPECT_FALSE(shard::DecodePartitionBlock(*decoded, 20).ok())
        << "corrupted byte " << i << " accepted";
  }
}

TEST(ShardWireTest, TruncatedFrameRejected) {
  const std::vector<uint8_t> frame =
      shard::EncodeCandidateBatch({WireCandidate{}});
  for (size_t len = 0; len < frame.size(); ++len) {
    std::vector<uint8_t> prefix(frame.begin(),
                                frame.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(DecodeFrame(prefix).ok()) << "prefix " << len;
  }
}

TEST(ShardWireTest, UnsupportedVersionRejected) {
  std::vector<uint8_t> frame = shard::EncodeCandidateBatch({});
  frame[4] ^= 0xff;  // version field, little-endian at offset 4
  Result<DecodedFrame> r = DecodeFrame(frame);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("version"), std::string::npos);

  // Stale peers get the same typed rejection: v5 (sliced table blocks,
  // row-range config), v6 (planner flag in kJobSubmit, no planner
  // counters in the stats footer) and v7 (compressed-payload codec and
  // flags bytes, decoded raw/wire counters in the stats footer).
  for (uint8_t version : {5, 6, 7}) {
    std::vector<uint8_t> old = shard::EncodeCandidateBatch({});
    old[4] = version;
    old[5] = 0;
    Result<DecodedFrame> stale = DecodeFrame(old);
    ASSERT_FALSE(stale.ok()) << "version " << int{version};
    EXPECT_EQ(stale.status().code(), StatusCode::kParseError);
    EXPECT_NE(stale.status().message().find("version"), std::string::npos);
  }
}

TEST(ShardWireTest, FrameTypeMismatchRejectedByMessageDecoders) {
  std::vector<uint8_t> frame = shard::EncodeCandidateBatch({});
  Result<DecodedFrame> decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(shard::DecodeResultBatch(*decoded).ok());
  EXPECT_FALSE(shard::DecodePartitionBlock(*decoded, 10).ok());

  // Type 14 (the withdrawn v5 partition fragment) is past the last
  // frame type, so the frame layer rejects it before any decoder.
  frame[6] = 14;  // type field, little-endian at offset 6
  frame[7] = 0;
  Result<DecodedFrame> unknown = DecodeFrame(frame);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kParseError);
  EXPECT_NE(unknown.status().message().find("unknown wire frame type"),
            std::string::npos);
}

// --------------------------------------------------- message payloads --

TEST(ShardWireTest, CandidateBatchRoundTrip) {
  std::vector<WireCandidate> batch;
  WireCandidate ofd;
  ofd.slot = 3;
  ofd.context_bits = 0b1011;
  ofd.kind = DependencyKind::kOfd;
  ofd.target = 2;
  batch.push_back(ofd);
  WireCandidate oc;
  oc.slot = 7;
  oc.context_bits = 0b100;
  oc.pair_a = 0;
  oc.pair_b = 5;
  oc.opposite = true;
  batch.push_back(oc);

  HeldFrame frame(shard::EncodeCandidateBatch(batch));
  ASSERT_TRUE(frame.ok());
  Result<std::vector<WireCandidate>> back =
      shard::DecodeCandidateBatch(*frame);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[0].slot, 3u);
  EXPECT_EQ((*back)[0].context_bits, 0b1011u);
  EXPECT_EQ((*back)[0].kind, DependencyKind::kOfd);
  EXPECT_EQ((*back)[0].target, 2);
  EXPECT_EQ((*back)[1].slot, 7u);
  EXPECT_EQ((*back)[1].pair_a, 0);
  EXPECT_EQ((*back)[1].pair_b, 5);
  EXPECT_TRUE((*back)[1].opposite);
}

TEST(ShardWireTest, ResultBatchRoundTripIsBitExact) {
  std::vector<WireOutcome> outcomes;
  WireOutcome o;
  o.slot = 12;
  o.valid = true;
  o.early_exit = true;
  o.removal_size = 41;
  // Values chosen to be unrepresentable in short decimal form: only a
  // bit-pattern encoding reproduces them exactly.
  o.approx_factor = 0.1 + 1e-17;
  o.interestingness = 1.0 / 3.0;
  o.seconds = 2.5e-7;
  o.removal_rows = {5, 9, 2};
  outcomes.push_back(o);
  outcomes.push_back(WireOutcome{});

  HeldFrame frame(shard::EncodeResultBatch(outcomes, /*final_chunk=*/true));
  ASSERT_TRUE(frame.ok());
  Result<shard::WireResultChunk> back = shard::DecodeResultBatch(*frame);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->final_chunk);
  ASSERT_EQ(back->outcomes.size(), 2u);
  const WireOutcome& b = back->outcomes[0];
  EXPECT_EQ(b.slot, 12u);
  EXPECT_TRUE(b.valid);
  EXPECT_TRUE(b.early_exit);
  EXPECT_EQ(b.removal_size, 41);
  EXPECT_EQ(b.approx_factor, o.approx_factor);
  EXPECT_EQ(b.interestingness, o.interestingness);
  EXPECT_EQ(b.seconds, o.seconds);
  EXPECT_EQ(b.removal_rows, o.removal_rows);
  EXPECT_FALSE(back->outcomes[1].valid);

  // A non-final chunk keeps its flag through the round trip too — the
  // coordinator's stream reassembly depends on it.
  HeldFrame open_chunk(
      shard::EncodeResultBatch(outcomes, /*final_chunk=*/false));
  ASSERT_TRUE(open_chunk.ok());
  Result<shard::WireResultChunk> open = shard::DecodeResultBatch(*open_chunk);
  ASSERT_TRUE(open.ok());
  EXPECT_FALSE(open->final_chunk);
  ASSERT_EQ(open->outcomes.size(), 2u);
  EXPECT_EQ(open->outcomes[0].approx_factor, o.approx_factor);
}

TEST(ShardWireTest, ConfigBlockRoundTripAndRejection) {
  shard::WireRunnerConfig config;
  config.shard_id = 3;
  config.attempt_id = 5;
  config.validator = 1;
  config.epsilon = 0.1 + 1e-17;  // bit-exact or bust
  config.collect_removal_sets = true;
  config.enable_sampling_filter = true;
  config.sampler_sample_size = 512;
  config.sampler_reject_margin = 0.25;
  config.sampler_seed = 99;
  config.partition_memory_budget_bytes = 1 << 20;
  config.num_threads = 4;

  HeldFrame frame(shard::EncodeConfigBlock(config));
  ASSERT_TRUE(frame.ok());
  Result<shard::WireRunnerConfig> back = shard::DecodeConfigBlock(*frame);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->shard_id, 3u);
  EXPECT_EQ(back->attempt_id, 5u);
  EXPECT_EQ(back->validator, 1);
  EXPECT_EQ(back->epsilon, config.epsilon);
  EXPECT_TRUE(back->collect_removal_sets);
  EXPECT_TRUE(back->enable_sampling_filter);
  EXPECT_EQ(back->sampler_sample_size, 512);
  EXPECT_EQ(back->sampler_reject_margin, 0.25);
  EXPECT_EQ(back->sampler_seed, 99u);
  EXPECT_EQ(back->partition_memory_budget_bytes, 1 << 20);
  EXPECT_EQ(back->num_threads, 4u);

  // Structural rejection: a validator kind that does not exist and an
  // epsilon outside [0, 1] decode as ParseError, not as garbage config.
  config.validator = 9;
  HeldFrame bad_validator(shard::EncodeConfigBlock(config));
  ASSERT_TRUE(bad_validator.ok());
  EXPECT_FALSE(shard::DecodeConfigBlock(*bad_validator).ok());
  config.validator = 1;
  config.epsilon = 1.5;
  HeldFrame bad_epsilon(shard::EncodeConfigBlock(config));
  EXPECT_FALSE(shard::DecodeConfigBlock(*bad_epsilon).ok());
}

TEST(ShardWireTest, TableBlockRoundTripsRanksExactly) {
  EncodedTable t = testing_util::RandomEncodedTable(120, 4, 7, 21);
  HeldFrame frame(shard::EncodeTableBlock(t));
  ASSERT_TRUE(frame.ok());
  Result<EncodedTable> back = shard::DecodeTableBlock(*frame);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_columns(), t.num_columns());
  ASSERT_EQ(back->num_rows(), t.num_rows());
  for (int c = 0; c < t.num_columns(); ++c) {
    EXPECT_EQ(back->name(c), t.name(c));
    EXPECT_EQ(back->ranks(c), t.ranks(c));
    EXPECT_EQ(back->column(c).cardinality, t.column(c).cardinality);
    // Dictionaries never cross the seam (validators are rank-only).
    EXPECT_TRUE(back->column(c).dictionary.empty());
  }
}

TEST(ShardWireTest, TableBlockCorruptionDetectedAtEveryByte) {
  EncodedTable t = testing_util::RandomEncodedTable(20, 2, 3, 5);
  const std::vector<uint8_t> frame = shard::EncodeTableBlock(t);
  for (size_t i = 0; i < frame.size(); ++i) {
    std::vector<uint8_t> bad = frame;
    bad[i] ^= 0x5a;
    Result<DecodedFrame> decoded = DecodeFrame(bad);
    if (!decoded.ok()) continue;
    EXPECT_FALSE(shard::DecodeTableBlock(*decoded).ok())
        << "corrupted byte " << i << " accepted";
  }
}

TEST(ShardWireTest, StatsFooterRoundTripAndShutdownFrame) {
  shard::ShardStatsFooter footer;
  footer.shard_id = 7;
  footer.attempt_id = 4;
  footer.frames_served = 12;
  footer.products_computed = 34;
  footer.planner_derivations = 21;
  footer.planner_cost_estimated = 5000;
  footer.planner_cost_realized = 4800;
  footer.partitions_evicted = 2;
  footer.partition_bytes_evicted = 4096;
  footer.partition_bytes_final = 123;
  footer.partition_bytes_peak = 456;
  footer.partition_seconds = 1.0 / 3.0;

  HeldFrame frame(shard::EncodeStatsFooter(footer));
  ASSERT_TRUE(frame.ok());
  Result<shard::ShardStatsFooter> back = shard::DecodeStatsFooter(*frame);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->shard_id, 7u);
  EXPECT_EQ(back->attempt_id, 4u);
  EXPECT_EQ(back->frames_served, 12);
  EXPECT_EQ(back->products_computed, 34);
  EXPECT_EQ(back->planner_derivations, 21);
  EXPECT_EQ(back->planner_cost_estimated, 5000);
  EXPECT_EQ(back->planner_cost_realized, 4800);
  EXPECT_EQ(back->partitions_evicted, 2);
  EXPECT_EQ(back->partition_bytes_evicted, 4096);
  EXPECT_EQ(back->partition_bytes_final, 123);
  EXPECT_EQ(back->partition_bytes_peak, 456);
  EXPECT_EQ(back->partition_seconds, footer.partition_seconds);

  // Negative counters are structurally impossible outputs; reject them.
  footer.products_computed = -1;
  HeldFrame bad(shard::EncodeStatsFooter(footer));
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(shard::DecodeStatsFooter(*bad).ok());
  footer.products_computed = 34;
  footer.partition_bytes_peak = -5;
  HeldFrame bad_peak(shard::EncodeStatsFooter(footer));
  ASSERT_TRUE(bad_peak.ok());
  EXPECT_FALSE(shard::DecodeStatsFooter(*bad_peak).ok());
  footer.partition_bytes_peak = 456;
  for (int64_t shard::ShardStatsFooter::*planner :
       {&shard::ShardStatsFooter::planner_derivations,
        &shard::ShardStatsFooter::planner_cost_estimated,
        &shard::ShardStatsFooter::planner_cost_realized}) {
    shard::ShardStatsFooter negative = footer;
    negative.*planner = -1;
    HeldFrame bad_planner(shard::EncodeStatsFooter(negative));
    ASSERT_TRUE(bad_planner.ok());
    EXPECT_FALSE(shard::DecodeStatsFooter(*bad_planner).ok());
  }

  // The shutdown frame is a bare, checksummed header.
  HeldFrame shutdown(shard::EncodeShutdown());
  ASSERT_TRUE(shutdown.ok());
  EXPECT_EQ((*shutdown).type, FrameType::kShutdown);
  EXPECT_EQ((*shutdown).size, 0u);
  // And like every frame, a footer decoder refuses it.
  EXPECT_FALSE(shard::DecodeStatsFooter(*shutdown).ok());
}

// ---------------------------------------------------------- channel --

TEST(ShardWireTest, InProcessChannelDeliversInOrderAndCloses) {
  InProcessChannel channel;
  EXPECT_TRUE(channel.Send({1, 2, 3}).ok());
  EXPECT_TRUE(channel.Send({4}).ok());
  EXPECT_EQ(channel.bytes_sent(), 4);
  Result<std::vector<uint8_t>> first = channel.Receive();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, (std::vector<uint8_t>{1, 2, 3}));
  channel.Close();
  // Queued frames remain receivable after Close; then Receive errors.
  Result<std::vector<uint8_t>> second = channel.Receive();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, (std::vector<uint8_t>{4}));
  EXPECT_FALSE(channel.Receive().ok());
  EXPECT_FALSE(channel.Send({5}).ok());
}

// ------------------------------------------- wire-seeded cache parity --

TEST(ShardWireTest, WireSeededCacheDerivesIdenticalPartitions) {
  EncodedTable t = testing_util::RandomEncodedTable(200, 4, 3, 33);
  PartitionCache local(&t);
  PartitionCache seeded(&t, PartitionCache::DeferBasePartitions{});
  for (int a = 0; a < t.num_columns(); ++a) {
    // Through the full frame path, as a shard runner receives them.
    HeldFrame frame(shard::EncodePartitionBlock(
        AttributeSet::Of({a}),
        StrippedPartition::FromColumn(t.column(a))));
    ASSERT_TRUE(frame.ok());
    auto block = shard::DecodePartitionBlock(*frame, t.num_rows());
    ASSERT_TRUE(block.ok());
    seeded.Preload(block->first, std::move(block->second));
  }
  for (uint64_t bits = 0; bits < 16; ++bits) {
    AttributeSet set(bits);
    EXPECT_EQ(seeded.Get(set)->Serialize(), local.Get(set)->Serialize())
        << set.ToString();
  }
}

TEST(ShardWireTest, ShardAssignmentIsStableAndInRange) {
  for (int shards : {1, 2, 4, 8}) {
    for (uint64_t bits = 0; bits < 64; ++bits) {
      const int s = shard::ShardCoordinator::ShardOf(bits, shards);
      EXPECT_GE(s, 0);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, shard::ShardCoordinator::ShardOf(bits, shards));
    }
  }
}

}  // namespace
}  // namespace aod
