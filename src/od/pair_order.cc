#include "od/pair_order.h"

#include <algorithm>
#include <bit>

#include "algo/radix_sort.h"

namespace aod {
namespace {

// RadixSortKeys beats std::sort on a class once it holds at least one key
// per kBucketsPerKey of the radix histogram slots (RadixSortBuckets), the
// radix sort's fixed cost. Crossovers measured by micro_validators'
// BM_SortPackedKeys (2^16 uniform keys, 4-core Xeon, GCC -O3), class
// sizes in two sweeps: 16-bit keys (512 slots) 24-28 keys, 20-bit (2048)
// 60-75, 24-bit (768) 32-40, 28-bit (3072) 100-130, 32-bit (6144)
// 150-260; one key per 18-40 slots.
constexpr size_t kBucketsPerKey = 32;

/// Bits needed to hold every rank of an attribute with `cardinality`
/// distinct values.
int RankBits(int32_t cardinality) {
  return cardinality <= 1
             ? 0
             : std::bit_width(static_cast<uint32_t>(cardinality - 1));
}

/// Grows `buffer` to at least `n` elements without shrinking it.
int32_t* AtLeast(std::vector<int32_t>& buffer, size_t n) {
  if (buffer.size() < n) buffer.resize(n);
  return buffer.data();
}

}  // namespace

PairOrder::PairOrder(const EncodedTable& table, int a, int b,
                     bool opposite_polarity, bool descending_ties)
    : ranks_a_(table.ranks(a).data()),
      ranks_b_(table.ranks(b).data()),
      card_b_(table.column(b).cardinality),
      opposite_polarity_(opposite_polarity),
      descending_ties_(descending_ties),
      bits_b_(RankBits(card_b_)),
      key_bits_(RankBits(table.column(a).cardinality) + bits_b_) {}

void PairOrder::SortRows(std::span<int32_t> rows) const {
  std::sort(rows.begin(), rows.end(), [&](int32_t s, int32_t t) {
    const int32_t sa = ranks_a_[static_cast<size_t>(s)];
    const int32_t ta = ranks_a_[static_cast<size_t>(t)];
    if (sa != ta) return sa < ta;
    return descending_ties_ ? Projected(s) > Projected(t)
                            : Projected(s) < Projected(t);
  });
}

std::span<const int32_t> PairOrder::Project(std::span<const int32_t> rows,
                                            ValidatorScratch& scratch) const {
  const size_t m = rows.size();
  if (key_bits_ > 32) {
    std::vector<int32_t>& sorted = scratch.rows();
    if (rows.data() != sorted.data()) sorted.assign(rows.begin(), rows.end());
    SortRows(std::span<int32_t>(sorted.data(), m));
    int32_t* values = AtLeast(scratch.projection(), m);
    for (size_t i = 0; i < m; ++i) values[i] = Projected(sorted[i]);
    return {values, m};
  }

  // The low bits hold the value in sort order: complemented when exactly
  // one of the polarity and the tie direction reverses B.
  const bool complement_low = opposite_polarity_ != descending_ties_;
  const uint32_t max_b = static_cast<uint32_t>(card_b_ - 1);
  // int32_t and uint32_t may alias, so the scratch buffers hold the keys.
  uint32_t* keys =
      reinterpret_cast<uint32_t*>(AtLeast(scratch.projection(), m));
  uint32_t all_or = 0;
  uint32_t all_and = ~uint32_t{0};
  for (size_t i = 0; i < m; ++i) {
    const size_t row = static_cast<size_t>(rows[i]);
    const uint32_t rank_b = static_cast<uint32_t>(ranks_b_[row]);
    const uint32_t key = (static_cast<uint32_t>(ranks_a_[row]) << bits_b_) |
                         (complement_low ? max_b - rank_b : rank_b);
    keys[i] = key;
    all_or |= key;
    all_and &= key;
  }
  // Bits above the highest one that differs between keys cannot order
  // them; a class clustered in A sorts on fewer bits than the pair.
  const int sort_bits = std::bit_width(all_or ^ all_and);
  uint32_t* sorted = keys;
  if (m * kBucketsPerKey < RadixSortBuckets(sort_bits)) {
    std::sort(keys, keys + m);
  } else {
    uint32_t* tmp = reinterpret_cast<uint32_t*>(AtLeast(scratch.rows(), m));
    sorted = RadixSortKeys(keys, tmp, m, sort_bits);
  }
  // Read the values back: the low bits, un-complemented for the
  // descending-tie order.
  const uint32_t low_mask = (uint64_t{1} << bits_b_) - 1;
  int32_t* values = reinterpret_cast<int32_t*>(sorted);
  for (size_t i = 0; i < m; ++i) {
    const uint32_t low = sorted[i] & low_mask;
    values[i] = static_cast<int32_t>(descending_ties_ ? max_b - low : low);
  }
  return {values, m};
}

}  // namespace aod
