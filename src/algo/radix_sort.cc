#include "algo/radix_sort.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace aod {
namespace {

constexpr int kMaxDigitBits = 11;
constexpr int kMaxPasses = (64 + kMaxDigitBits - 1) / kMaxDigitBits;

int Passes(int key_bits) {
  return (key_bits + kMaxDigitBits - 1) / kMaxDigitBits;
}

int DigitBits(int key_bits) {
  const int passes = Passes(key_bits);
  return passes == 0 ? 0 : (key_bits + passes - 1) / passes;
}

template <typename Key>
Key* SortByLowBits(Key* keys, Key* tmp, size_t n, int key_bits) {
  AOD_DCHECK(key_bits >= 0 &&
             key_bits <= static_cast<int>(8 * sizeof(Key)));
  AOD_DCHECK(n <= UINT32_MAX);
  const int passes = Passes(key_bits);
  if (passes == 0 || n < 2) return keys;
  const int digit_bits = DigitBits(key_bits);
  const Key mask = (Key{1} << digit_bits) - 1;
  const size_t buckets = size_t{1} << digit_bits;

  uint32_t counts[kMaxPasses][size_t{1} << kMaxDigitBits];
  for (int p = 0; p < passes; ++p) std::fill_n(counts[p], buckets, 0u);
  for (size_t i = 0; i < n; ++i) {
    const Key key = keys[i];
    for (int p = 0; p < passes; ++p) {
      ++counts[p][(key >> (p * digit_bits)) & mask];
    }
  }

  Key* src = keys;
  Key* dst = tmp;
  for (int p = 0; p < passes; ++p) {
    const int shift = p * digit_bits;
    uint32_t* count = counts[p];
    if (count[(src[0] >> shift) & mask] == n) continue;
    uint32_t offset = 0;
    for (size_t d = 0; d < buckets; ++d) {
      const uint32_t c = count[d];
      count[d] = offset;
      offset += c;
    }
    for (size_t i = 0; i < n; ++i) {
      const Key key = src[i];
      dst[count[(key >> shift) & mask]++] = key;
    }
    std::swap(src, dst);
  }
  return src;
}

}  // namespace

size_t RadixSortBuckets(int key_bits) {
  return static_cast<size_t>(Passes(key_bits)) << DigitBits(key_bits);
}

uint32_t* RadixSortKeys(uint32_t* keys, uint32_t* tmp, size_t n,
                        int key_bits) {
  return SortByLowBits(keys, tmp, n, key_bits);
}

uint64_t* RadixSortKeys(uint64_t* keys, uint64_t* tmp, size_t n,
                        int key_bits) {
  return SortByLowBits(keys, tmp, n, key_bits);
}

}  // namespace aod
