// Order-preserving dense rank encoding.
//
// Every OD algorithm in this library needs only (a) the relative order of
// values within each attribute and (b) value equality. Encoding each column
// once into dense int32 ranks (0..cardinality-1, nulls first) makes every
// downstream step — partition products, swap detection, LNDS — pure integer
// work. This mirrors the preprocessing in FASTOD [9] and TANE [3].
//
// The encoder sorts no row ids with a comparator. A numeric cell maps to
// an order-preserving 64-bit key (a double's -0.0 takes +0.0's key), and
// the span of the keys picks one of three paths:
//   - span <= 4n + 2^16: direct addressing, a first-row table over the
//     span and a prefix walk that hands out the ranks, O(n + span);
//   - key bits + row bits <= 64: (key - min) << row_bits | row packed in
//     one word and LSD radix sorted (algo/radix_sort.h), so equal keys
//     come out row-ascending, O(n * passes);
//   - otherwise a comparator sort of flat (key, row) pairs, O(n log n).
// A string column numbers its distinct strings by first occurrence
// through a hash table and sorts only those, O(n + d log d) for d
// distinct strings. Scratch stays at or below 16 B/row on every path.
#ifndef AOD_DATA_ENCODER_H_
#define AOD_DATA_ENCODER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/column.h"
#include "data/table.h"

namespace aod {

/// One rank-encoded attribute.
struct EncodedColumn {
  std::string name;
  /// ranks[row] in [0, cardinality); v1 < v2 implies rank(v1) < rank(v2)
  /// under Value's total order (nulls smallest, so nulls share rank 0 when
  /// present).
  std::vector<int32_t> ranks;
  /// Number of distinct values (including the null group if any).
  int32_t cardinality = 0;
  /// Row `rank` of the dictionary holds the value carrying that rank, as
  /// found at the smallest row with that rank, typed like the source
  /// column. Lets the repair module and debug output translate ranks back
  /// to values. Always of size `cardinality` when produced by
  /// EncodeColumn; empty when ranks came without values (the shard wire).
  Column dictionary{"", DataType::kInt64};

  /// Value for `rank`; Null when no dictionary was materialized.
  Value Decode(int32_t rank) const {
    if (rank < 0 || rank >= dictionary.size()) return Value::Null();
    return dictionary.GetValue(rank);
  }
};

/// A fully rank-encoded relation instance; the input type of the discovery
/// framework and all validators.
class EncodedTable {
 public:
  EncodedTable() = default;
  EncodedTable(std::vector<EncodedColumn> columns, int64_t num_rows);

  int num_columns() const { return static_cast<int>(columns_.size()); }
  int64_t num_rows() const { return num_rows_; }
  const EncodedColumn& column(int i) const;
  const std::vector<int32_t>& ranks(int i) const { return column(i).ranks; }
  const std::string& name(int i) const { return column(i).name; }

  /// Index of attribute `name` or -1.
  int ColumnIndex(const std::string& name) const;

 private:
  std::vector<EncodedColumn> columns_;
  int64_t num_rows_ = 0;
};

/// Encodes every column of `table`, each by the cheapest of the paths in
/// the header comment: O(n + span), radix or O(n log n) for a numeric
/// column, O(n + d log d) for a string column.
EncodedTable EncodeTable(const Table& table);

/// Encodes a single column (exposed for tests and custom pipelines).
EncodedColumn EncodeColumn(const Column& column);

/// Builds an EncodedTable directly from pre-ranked integer columns — used
/// by tests and property checks where the raw-value detour adds nothing.
/// Ranks are densified (values need not be contiguous).
EncodedTable EncodedTableFromInts(
    const std::vector<std::string>& names,
    const std::vector<std::vector<int64_t>>& columns);

}  // namespace aod

#endif  // AOD_DATA_ENCODER_H_
