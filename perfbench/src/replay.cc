// The layer replay of the traced run: the unpruned lattice walked to a
// fixed level through the library's public partition, validator and
// wire functions, one span per call, so per-call costs are measured
// where the work happens instead of being inferred from DiscoveryStats.
#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>

#include "bench.h"
#include "od/lattice.h"
#include "od/validator_registry.h"
#include "partition/stripped_partition.h"
#include "shard/wire.h"

namespace perfbench {

void ReplayLayers(const aod::EncodedTable& table, aod::DependencyKindSet kinds,
                  Tracer* tracer, Report* report) {
  const int64_t n = table.num_rows();
  const int cols = table.num_columns();
  ScopedSpan root(tracer, "bench.replay");

  std::vector<aod::StrippedPartition> bases;
  double from_column_s = 0.0;
  for (int c = 0; c < cols; ++c) {
    ScopedSpan span(tracer, "partition.from_column", root.id());
    const double t0 = NowS();
    bases.push_back(aod::StrippedPartition::FromColumn(table.column(c)));
    from_column_s += NowS() - t0;
  }

  // Wire codecs on the base partitions (the frames a shard bootstrap ships).
  double raw_mib = 0.0, encode_s = 0.0, decode_s = 0.0;
  for (int c = 0; c < cols; ++c) {
    aod::shard::CodecByteCounts counts;
    const double t0 = NowS();
    int64_t span = tracer->Begin("shard.encode_partition_block", root.id());
    const std::vector<uint8_t> frame = aod::shard::EncodePartitionBlock(
        aod::AttributeSet::Of({c}), bases[static_cast<size_t>(c)], true, &counts);
    tracer->End(span);
    const double t1 = NowS();
    span = tracer->Begin("shard.decode_frame", root.id());
    auto decoded = aod::shard::DecodeFrame(frame);
    auto block = decoded.ok() ? aod::shard::DecodePartitionBlock(*decoded, n)
                              : decoded.status();
    tracer->End(span);
    decode_s += NowS() - t1;
    encode_s += t1 - t0;
    raw_mib += static_cast<double>(counts.raw) / (1024.0 * 1024.0);
    const aod::StrippedPartition& base = bases[static_cast<size_t>(c)];
    if (!block.ok() || block->second.row_ids() != base.row_ids() ||
        block->second.class_offsets() != base.class_offsets()) {
      std::printf("CHECK FAILED partition block of attribute %d did not "
                  "round-trip: %s\n",
                  c, block.status().ToString().c_str());
      report->correct = false;
    }
  }

  // Unpruned lattice walk. Partitions of level L are kept while level
  // L + 1 is built and validated, then dropped.
  aod::PartitionScratch scratch(n);
  aod::ValidatorScratch vscratch;
  std::map<uint64_t, aod::StrippedPartition> parts;
  parts[0] = aod::StrippedPartition::WholeRelation(n);
  int64_t products = 0, aoc = 0, aoc_early = 0;
  double product_s = 0.0;
  auto validate = [&](aod::DependencyKind kind, aod::AttributeSet ctx, int a,
                      int b) {
    aod::ValidationRequest req;
    req.table = &table;
    req.context_partition = &parts.at(ctx.bits());
    req.kind = kind;
    req.target = a;
    req.pair = aod::AttributePair::Of(a, std::max(b, 0));
    req.algorithm = aod::ValidatorKind::kOptimal;
    req.epsilon = kEpsilon;
    req.afd_error = kAfdError;
    req.table_rows = n;
    req.scratch = &vscratch;
    ScopedSpan span(tracer,
                    std::string("od.validate.") + aod::DependencyKindToString(kind),
                    root.id());
    const aod::DependencyVerdict v = aod::ValidateDependency(req);
    if (kind == aod::DependencyKind::kOc) {
      ++aoc;
      aoc_early += v.early_exit ? 1 : 0;
    }
  };
  const aod::DependencyKind target_kinds[] = {
      aod::DependencyKind::kOfd, aod::DependencyKind::kFd,
      aod::DependencyKind::kAfd};

  aod::LatticeLevel level = aod::LatticeLevel::MakeFirstLevel(cols);
  for (int l = 1; l <= kReplayMaxLevel; ++l) {
    if (l > 1) level = level.GenerateNext();
    std::vector<aod::AttributeSet> nodes;
    for (const auto& [set, node] : level.nodes()) nodes.push_back(set);
    std::sort(nodes.begin(), nodes.end());
    std::map<uint64_t, aod::StrippedPartition> next;
    for (aod::AttributeSet x : nodes) {
      if (l == 1) {
        next[x.bits()] = bases[static_cast<size_t>(x.First())];
      } else {
        const int last = x.Last();
        ScopedSpan span(tracer, "partition.product", root.id());
        const double t0 = NowS();
        aod::StrippedPartition p = parts.at(x.Without(last).bits())
                                       .Product(bases[static_cast<size_t>(last)],
                                                n, &scratch);
        product_s += NowS() - t0;
        ++products;
        if (l < kReplayMaxLevel) next[x.bits()] = std::move(p);
      }
      x.ForEach([&](int a) {
        for (aod::DependencyKind k : target_kinds) {
          if (kinds.Contains(k)) validate(k, x.Without(a), a, -1);
        }
        if (kinds.Contains(aod::DependencyKind::kOc)) {
          x.ForEach([&](int b) {
            if (b > a) validate(aod::DependencyKind::kOc, x.Without(a).Without(b), a, b);
          });
        }
      });
    }
    // Contexts of level l + 1 are at levels l and l - 1.
    for (auto it = parts.begin(); it != parts.end();) {
      it = std::popcount(it->first) + 1 < l ? parts.erase(it) : std::next(it);
    }
    parts.merge(next);
  }

  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  report->layer.push_back({"partition.from_column_s", from_column_s, "s"});
  report->layer.push_back(
      {"partition.product_us_per_call",
       ratio(product_s * 1e6, static_cast<double>(products)), "us"});
  report->layer.push_back(
      {"od.aoc.early_exit_ratio",
       ratio(static_cast<double>(aoc_early), static_cast<double>(aoc)), "ratio"});
  report->layer.push_back(
      {"shard.partition_block_encode_mib_s", ratio(raw_mib, encode_s), "MiB/s"});
  report->layer.push_back(
      {"shard.partition_block_decode_mib_s", ratio(raw_mib, decode_s), "MiB/s"});
}

}  // namespace perfbench
