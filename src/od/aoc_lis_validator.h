// The paper's Algorithm 2, `Approx-OC-optimal`: LIS-based AOC validation.
//
// Per equivalence class of the context, tuples are ordered by
// [A ASC, B ASC]; the tuples not on a longest non-decreasing subsequence
// (LNDS) of the B-projection form a removal set. Theorem 3.3 proves the
// set is a *minimal* removal set; Theorem 3.4 proves the O(n log n)
// runtime is optimal for AOC validation (via reduction from Fredman's
// LIS-DEC lower bound).
//
// Sec. 3.3 extension: breaking A-ties by B *DESC*ending instead forces the
// LNDS to also eliminate splits, which validates the canonical OD
// X: A -> B (== OC X: A ~ B plus OFD XA: [] -> B) in one pass.
//
// Which path runs (the ordering itself is od/pair_order.h):
//   - Size only (`collect_removal_set` off, what discovery runs) with
//     bits(|A|) + bits(|B|) <= 32: each class is ordered as packed 32-bit
//     (rank_a, rank_b) keys, by LSD radix sort once the class pays for
//     the radix histograms and by std::sort on the flat keys below that;
//     no row id is sorted. The ranks are dense integers, so Thm. 3.4's
//     comparison-model bound does not apply to this step: it costs
//     O(m + 2^11) per radix pass, at most three passes.
//   - Size only with a wider pair: a comparator sort of the row ids,
//     O(m log m).
//   - `collect_removal_set` on: always the comparator sort, since the
//     removal set names rows; its rows are the LNDS complement in that
//     order.
// Then an O(m log m) LNDS per class. With `early_exit` the size-only LNDS
// also stops mid-class: after i elements on p piles at least i - p are
// removed, so a candidate stops as soon as that passes its budget, and
// `removal_size` is then a lower bound above MaxRemovals (not exact).
#ifndef AOD_OD_AOC_LIS_VALIDATOR_H_
#define AOD_OD_AOC_LIS_VALIDATOR_H_

#include "data/encoder.h"
#include "od/canonical_od.h"
#include "od/validator_scratch.h"
#include "partition/stripped_partition.h"

namespace aod {

/// Validates the AOC `context_partition`: a ~ b against `epsilon`.
/// The removal set is minimal (Thm. 3.3); `removal_size` is exact unless
/// `early_exit` fired. O(n log n) total. `scratch` (optional) removes the
/// per-call sort/projection/LNDS allocations.
ValidationOutcome ValidateAocOptimal(const EncodedTable& table,
                                     const StrippedPartition& context_partition,
                                     int a, int b, double epsilon,
                                     int64_t table_rows,
                                     const ValidatorOptions& options = {},
                                     ValidatorScratch* scratch = nullptr);

/// Validates the canonical AOD `context_partition`: a -> b (order *and*
/// constancy of b per a-group) via the descending-tie variant. The removal
/// set is minimal for the OD.
ValidationOutcome ValidateAodOptimal(const EncodedTable& table,
                                     const StrippedPartition& context_partition,
                                     int a, int b, double epsilon,
                                     int64_t table_rows,
                                     const ValidatorOptions& options = {},
                                     ValidatorScratch* scratch = nullptr);

}  // namespace aod

#endif  // AOD_OD_AOC_LIS_VALIDATOR_H_
