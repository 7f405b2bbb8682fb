// Longest non-decreasing / increasing subsequence.
//
// The heart of the paper's Algorithm 2: after sorting an equivalence class
// by [A ASC, B ASC], the tuples *not* on a longest non-decreasing
// subsequence (LNDS) of the B-projection form a minimal removal set for
// the AOC candidate (paper Thm. 3.3). The patience-style DP below is the
// classic O(m log m) method descending from Fredman [2].
#ifndef AOD_ALGO_LNDS_H_
#define AOD_ALGO_LNDS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace aod {

/// Length of a longest non-decreasing subsequence of `xs`. `tails` is
/// caller-owned working storage: its contents are overwritten and its
/// capacity is kept, so a reused buffer makes the call allocation-free.
int64_t LndsLength(std::span<const int32_t> xs, std::vector<int32_t>& tails);

/// Length of a longest strictly increasing subsequence of `xs`; `tails`
/// as for LndsLength.
int64_t LisLength(std::span<const int32_t> xs, std::vector<int32_t>& tails);

/// |xs| - LndsLength(xs), the size of a minimal removal set, computed
/// under a budget. After i elements with p piles at least i - p elements
/// are off every LNDS, so the scan stops as soon as that bound exceeds
/// `budget`. The result is exact when it is <= `budget`; otherwise it is
/// some value in (budget, exact].
int64_t LndsRemovals(std::span<const int32_t> xs, int64_t budget,
                     std::vector<int32_t>& tails);

/// Positions (ascending) of one longest non-decreasing subsequence.
std::vector<int32_t> LndsIndices(const std::vector<int32_t>& xs);

/// Positions (ascending) of one longest strictly increasing subsequence.
std::vector<int32_t> LisIndices(const std::vector<int32_t>& xs);

/// Positions NOT on the returned LNDS — i.e. the removal set over local
/// positions. Equivalent to complementing LndsIndices but fused to avoid
/// a second pass.
std::vector<int32_t> LndsComplement(const std::vector<int32_t>& xs);

/// Generic LNDS over an index range with a custom `leq(a, b)` meaning
/// xs[a] <= xs[b] in the caller's element order. Needed by the list-based
/// OD validator where elements are lexicographic tuples. `leq` must be a
/// total preorder. Returns positions (ascending) of one LNDS of the
/// sequence 0..n-1.
///
/// O(m log m) comparisons: the tails array is maintained over positions,
/// and binary search uses `leq` only.
template <typename Leq>
std::vector<int32_t> LndsIndicesBy(int32_t n, Leq leq) {
  // tails[k] = position of the smallest-possible tail of a non-decreasing
  // subsequence of length k+1; prev[] threads the reconstruction.
  std::vector<int32_t> tails;
  std::vector<int32_t> prev(static_cast<size_t>(n), -1);
  tails.reserve(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    // Find first k with xs[tails[k]] > xs[i], i.e. NOT leq(tails[k], i).
    auto it = std::upper_bound(tails.begin(), tails.end(), i,
                               [&](int32_t pos, int32_t tail) {
                                 return !leq(tail, pos);
                               });
    if (it == tails.end()) {
      prev[static_cast<size_t>(i)] = tails.empty() ? -1 : tails.back();
      tails.push_back(i);
    } else {
      prev[static_cast<size_t>(i)] =
          it == tails.begin() ? -1 : *(it - 1);
      *it = i;
    }
  }
  std::vector<int32_t> out(tails.size());
  int32_t cur = tails.empty() ? -1 : tails.back();
  for (size_t k = tails.size(); k-- > 0;) {
    out[k] = cur;
    cur = prev[static_cast<size_t>(cur)];
  }
  return out;
}

}  // namespace aod

#endif  // AOD_ALGO_LNDS_H_
