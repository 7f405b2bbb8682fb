// Small helpers shared by the benchmark program: a monotonic clock that
// forked children share with their parent, order statistics, and a
// length-checked byte codec for the parent/child pipe.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on CLOCK_MONOTONIC. The clock is system-wide, so timestamps
/// taken in a forked child compare directly with the parent's.
inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// SplitMix64: the benchmark's own input randomness, independent of the
/// library's generators.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Appends fixed-width little-endian fields to a byte string.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof v); }
  void I64(int64_t v) { Raw(&v, sizeof v); }
  void F64(double v) { Raw(&v, sizeof v); }
  void Str(const std::string& s) {
    U64(s.size());
    buf_.append(s);
  }
  std::string& bytes() { return buf_; }

 private:
  void Raw(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// Reads what ByteWriter wrote. A short read sets ok() to false and
/// yields zeros, so callers check ok() once at the end.
class ByteReader {
 public:
  explicit ByteReader(const std::string& s) : s_(s) {}
  uint8_t U8() {
    uint8_t v = 0;
    Raw(&v, sizeof v);
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Raw(&v, sizeof v);
    return v;
  }
  int64_t I64() {
    int64_t v = 0;
    Raw(&v, sizeof v);
    return v;
  }
  double F64() {
    double v = 0;
    Raw(&v, sizeof v);
    return v;
  }
  std::string Str() {
    const uint64_t n = U64();
    if (!ok_ || n > s_.size() - pos_) {
      ok_ = false;
      return {};
    }
    std::string out = s_.substr(pos_, n);
    pos_ += n;
    return out;
  }
  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == s_.size(); }

 private:
  void Raw(void* p, size_t n) {
    if (!ok_ || n > s_.size() - pos_) {
      ok_ = false;
      return;
    }
    std::memcpy(p, s_.data() + pos_, n);
    pos_ += n;
  }
  const std::string& s_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
