#include "algo/lnds.h"

namespace aod {
namespace {

/// Shared patience-DP core: returns the number of elements off the
/// longest subsequence, stopping once it provably exceeds `budget`.
/// `kStrict` selects LIS (strictly increasing) vs LNDS (non-decreasing).
template <bool kStrict>
int64_t RemovalsImpl(std::span<const int32_t> xs, int64_t budget,
                     std::vector<int32_t>& tails_buffer) {
  if (tails_buffer.size() < xs.size()) tails_buffer.resize(xs.size());
  // tails[k] = min tail value of a subsequence of length k+1.
  int32_t* const tails = tails_buffer.data();
  int32_t* end = tails;
  int64_t removed = 0;
  for (int32_t x : xs) {
    // Extending the longest pile is the common case on nearly ordered
    // classes; skip the binary search for it.
    if (end == tails || (kStrict ? end[-1] < x : end[-1] <= x)) {
      *end++ = x;
      continue;
    }
    int32_t* it = kStrict ? std::lower_bound(tails, end, x)
                          : std::upper_bound(tails, end, x);
    *it = x;
    if (++removed > budget) break;
  }
  return removed;
}

template <bool kStrict>
std::vector<int32_t> IndicesImpl(const std::vector<int32_t>& xs) {
  const int32_t n = static_cast<int32_t>(xs.size());
  std::vector<int32_t> tail_values;
  std::vector<int32_t> tail_positions;
  std::vector<int32_t> prev(xs.size(), -1);
  tail_values.reserve(xs.size());
  tail_positions.reserve(xs.size());
  for (int32_t i = 0; i < n; ++i) {
    typename std::vector<int32_t>::iterator it;
    if constexpr (kStrict) {
      it = std::lower_bound(tail_values.begin(), tail_values.end(), xs[i]);
    } else {
      it = std::upper_bound(tail_values.begin(), tail_values.end(), xs[i]);
    }
    size_t k = static_cast<size_t>(it - tail_values.begin());
    prev[static_cast<size_t>(i)] =
        k == 0 ? -1 : tail_positions[k - 1];
    if (it == tail_values.end()) {
      tail_values.push_back(xs[i]);
      tail_positions.push_back(i);
    } else {
      *it = xs[i];
      tail_positions[k] = i;
    }
  }
  std::vector<int32_t> out(tail_positions.size());
  int32_t cur = tail_positions.empty() ? -1 : tail_positions.back();
  for (size_t k = tail_positions.size(); k-- > 0;) {
    out[k] = cur;
    cur = prev[static_cast<size_t>(cur)];
  }
  return out;
}

}  // namespace

int64_t LndsLength(std::span<const int32_t> xs, std::vector<int32_t>& tails) {
  return static_cast<int64_t>(xs.size()) -
         RemovalsImpl<false>(xs, INT64_MAX, tails);
}

int64_t LisLength(std::span<const int32_t> xs, std::vector<int32_t>& tails) {
  return static_cast<int64_t>(xs.size()) -
         RemovalsImpl<true>(xs, INT64_MAX, tails);
}

int64_t LndsRemovals(std::span<const int32_t> xs, int64_t budget,
                     std::vector<int32_t>& tails) {
  return RemovalsImpl<false>(xs, budget, tails);
}

std::vector<int32_t> LndsIndices(const std::vector<int32_t>& xs) {
  return IndicesImpl<false>(xs);
}

std::vector<int32_t> LisIndices(const std::vector<int32_t>& xs) {
  return IndicesImpl<true>(xs);
}

std::vector<int32_t> LndsComplement(const std::vector<int32_t>& xs) {
  std::vector<int32_t> kept = LndsIndices(xs);
  std::vector<int32_t> out;
  out.reserve(xs.size() - kept.size());
  size_t k = 0;
  for (int32_t i = 0; i < static_cast<int32_t>(xs.size()); ++i) {
    if (k < kept.size() && kept[k] == i) {
      ++k;
    } else {
      out.push_back(i);
    }
  }
  return out;
}

}  // namespace aod
