// The ordering step of the paper's Algorithm 2 (line 3): sort a context
// class by [A ASC, B ASC] and read its B-projection. Shared by every
// validator that needs it: the AOC/AOD LIS validators, the exact OC check
// and the hybrid sampler's estimate.
//
// Both attributes are dense ranks, so when bits(|A|) + bits(|B|) <= 32 a
// row's sort key packs into one 32-bit word, (rank_a << bits_b) | b', and
// a class orders without comparisons: LSD radix sort (algo/radix_sort.h)
// once the class is large enough to pay for the radix histograms,
// std::sort on the flat keys below that (the measured crossover is in
// pair_order.cc). The B-projection is then read back from the keys' low
// bits, so the row ids are never sorted. Wider pairs fall back to a
// comparator sort of the row ids, as does any caller that needs the
// sorted row ids themselves.
//
// Equal keys are equal (rank_a, rank_b) pairs, so every path yields the
// same projection sequence whatever the sort's tie order.
#ifndef AOD_OD_PAIR_ORDER_H_
#define AOD_OD_PAIR_ORDER_H_

#include <cstdint>
#include <span>

#include "data/encoder.h"
#include "od/validator_scratch.h"

namespace aod {

class PairOrder {
 public:
  /// `opposite_polarity` orders B descending (the bidirectional polarity
  /// a asc ~ b desc); `descending_ties` breaks A-ties by B descending
  /// instead of ascending (the OD variant of paper Sec. 3.3).
  PairOrder(const EncodedTable& table, int a, int b, bool opposite_polarity,
            bool descending_ties);

  /// The B-projection value of `row`: rank_b, or |B| - 1 - rank_b under
  /// the opposite polarity. A class is ordered by (rank_a, value) with
  /// value ascending, or descending under `descending_ties`.
  int32_t Projected(int32_t row) const {
    const int32_t rank = ranks_b_[static_cast<size_t>(row)];
    return opposite_polarity_ ? card_b_ - 1 - rank : rank;
  }

  /// Sorts row ids in place into the line-3 order (comparator sort).
  void SortRows(std::span<int32_t> rows) const;

  /// The B-projection of `rows` in the line-3 order, built in `scratch`'s
  /// rows()/projection() buffers and valid until their next use. `rows`
  /// may alias scratch.rows() but not scratch.projection().
  std::span<const int32_t> Project(std::span<const int32_t> rows,
                                   ValidatorScratch& scratch) const;

 private:
  const int32_t* ranks_a_;
  const int32_t* ranks_b_;
  int32_t card_b_;
  bool opposite_polarity_;
  bool descending_ties_;
  int bits_b_;
  /// bits(|A|) + bits(|B|); the key packs into 32 bits when <= 32.
  int key_bits_;
};

}  // namespace aod

#endif  // AOD_OD_PAIR_ORDER_H_
