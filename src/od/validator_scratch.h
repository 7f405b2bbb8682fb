// Pooled per-task scratch for the validator hot paths.
//
// Every validator call sorts a class projection and walks derived
// buffers; with one ValidatorScratch borrowed per validation task (the
// driver keeps a free list, mirroring PartitionCache's PartitionScratch
// pool) the steady state performs no heap allocation regardless of class
// count. All buffers grow monotonically to the largest class seen and
// hold no state between calls — any validator may use any subset.
#ifndef AOD_OD_VALIDATOR_SCRATCH_H_
#define AOD_OD_VALIDATOR_SCRATCH_H_

#include <cstdint>
#include <vector>

#include "algo/inversions.h"

namespace aod {

class ValidatorScratch {
 public:
  /// Row-id sort buffer (the [A ASC, B ASC] ordering of one class); also
  /// the radix ping-pong buffer of PairOrder's packed keys.
  std::vector<int32_t>& rows() { return rows_; }
  /// B-projection of the sorted class; also PairOrder's packed keys.
  std::vector<int32_t>& projection() { return projection_; }
  /// Patience piles of the LNDS over one class (algo/lnds.h).
  std::vector<int32_t>& tails() { return tails_; }
  /// Class-index ordering buffer (largest-first iteration).
  std::vector<int32_t>& order() { return order_; }
  /// A-ranks / B-ranks of the sorted class (iterative validator).
  std::vector<int32_t>& ranks_a() { return ranks_a_; }
  std::vector<int32_t>& ranks_b() { return ranks_b_; }
  /// Per-tuple swap counts and liveness (iterative validator).
  std::vector<int64_t>& swap_counts() { return swap_counts_; }
  std::vector<uint8_t>& alive() { return alive_; }
  /// Fenwick trees for dense per-element inversion counting.
  InversionScratch& inversions() { return inversions_; }

  /// Dense per-value counters over [0, cardinality), zeroed on first
  /// growth. Callers must re-zero every slot they touched before
  /// returning (decrement back or walk their rows again); that keeps the
  /// reset O(class) rather than O(cardinality).
  std::vector<int32_t>& value_counts(int64_t cardinality) {
    if (static_cast<int64_t>(value_counts_.size()) < cardinality) {
      value_counts_.resize(static_cast<size_t>(cardinality), 0);
    }
    return value_counts_;
  }

 private:
  std::vector<int32_t> rows_;
  std::vector<int32_t> projection_;
  std::vector<int32_t> tails_;
  std::vector<int32_t> order_;
  std::vector<int32_t> ranks_a_;
  std::vector<int32_t> ranks_b_;
  std::vector<int64_t> swap_counts_;
  std::vector<uint8_t> alive_;
  std::vector<int32_t> value_counts_;
  InversionScratch inversions_;
};

}  // namespace aod

#endif  // AOD_OD_VALIDATOR_SCRATCH_H_
