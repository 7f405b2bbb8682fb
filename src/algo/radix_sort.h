// LSD radix sort of unsigned keys of known bit width.
//
// The AOC validator orders each context class by a key packed from two
// dense ranks (see od/pair_order.h). Such keys are integers below
// 2^key_bits, so the ordering needs no comparisons: ceil(key_bits / 11)
// counting passes, each O(m + 2^digit), sort a class of m keys.
#ifndef AOD_ALGO_RADIX_SORT_H_
#define AOD_ALGO_RADIX_SORT_H_

#include <cstddef>
#include <cstdint>

namespace aod {

/// Sorts keys[0, n) ascending. All keys must agree on every bit at or
/// above `key_bits` (in [0, 32]), so only the low `key_bits` bits order
/// them. Digits are at most 11 bits wide and split those bits evenly; all
/// digit histograms come from one read of the keys, and a pass whose
/// digit is equal in every key is skipped. The passes ping-pong between
/// `keys` and `tmp` (both hold at least n keys); the return value is
/// whichever of the two holds the sorted keys.
uint32_t* RadixSortKeys(uint32_t* keys, uint32_t* tmp, size_t n,
                        int key_bits);

/// Histogram slots RadixSortKeys clears and scans for `key_bits`: its
/// fixed cost per call, whatever n is.
size_t RadixSortBuckets(int key_bits);

}  // namespace aod

#endif  // AOD_ALGO_RADIX_SORT_H_
