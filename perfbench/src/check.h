// Output checks: every op's dependency list is compared field by field
// with a serial, unsharded reference, and the reference itself is
// re-validated dependency by dependency with ValidateDependency on
// partitions the benchmark builds with FromColumn/Product (outside the
// library's partition cache).
#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/encoder.h"
#include "od/discovery.h"
#include "util.h"

namespace perfbench {

/// The checked fields of one discovered dependency. `error_bits` is the
/// IEEE-754 pattern of DiscoveredDependency::error, so the comparison is
/// exact.
struct DepRecord {
  uint8_t kind = 0;
  uint64_t context = 0;
  int64_t a = -1;
  int64_t b = -1;
  uint8_t opposite = 0;
  int64_t removal_size = 0;
  uint64_t error_bits = 0;

  bool operator==(const DepRecord& o) const = default;
  std::string ToString() const;
};

std::vector<DepRecord> RecordsOf(const aod::DiscoveryResult& result);
void EncodeRecords(const std::vector<DepRecord>& records, ByteWriter* w);
std::vector<DepRecord> DecodeRecords(ByteReader* r);

/// FNV-1a over every record field in list order.
uint64_t Fingerprint(const std::vector<DepRecord>& records);

/// "" when equal, else a one-line description of the first difference.
std::string DescribeMismatch(const std::vector<DepRecord>& got,
                             const std::vector<DepRecord>& want);

/// Re-validates every record on `table` under the run's thresholds.
/// Returns the number of records that did not reproduce (not valid, or a
/// different removal size or error); `first_failure` describes the first.
int64_t Recheck(const aod::EncodedTable& table,
                const std::vector<DepRecord>& records, double epsilon,
                double afd_error, std::string* first_failure);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
