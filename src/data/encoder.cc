#include "data/encoder.h"

#include <algorithm>
#include <bit>
#include <climits>
#include <functional>
#include <numeric>
#include <utility>

#include "algo/radix_sort.h"
#include "common/macros.h"

namespace aod {

EncodedTable::EncodedTable(std::vector<EncodedColumn> columns,
                           int64_t num_rows)
    : columns_(std::move(columns)), num_rows_(num_rows) {
  for (const auto& col : columns_) {
    AOD_CHECK_MSG(static_cast<int64_t>(col.ranks.size()) == num_rows_,
                  "column '%s' has %zu ranks, expected %lld",
                  col.name.c_str(), col.ranks.size(),
                  static_cast<long long>(num_rows_));
  }
}

const EncodedColumn& EncodedTable::column(int i) const {
  AOD_CHECK_MSG(i >= 0 && i < num_columns(), "column index %d out of range",
                i);
  return columns_[static_cast<size_t>(i)];
}

int EncodedTable::ColumnIndex(const std::string& name) const {
  for (int i = 0; i < num_columns(); ++i) {
    if (columns_[static_cast<size_t>(i)].name == name) return i;
  }
  return -1;
}

namespace {

constexpr uint64_t kSignBit = uint64_t{1} << 63;

/// A numeric column whose key span is at most 4n + kDirectSlack is ranked
/// by direct addressing: its slot table costs at most 16 B/row plus a
/// fixed 256 KiB, like the radix path's two key buffers.
constexpr uint64_t kDirectSlack = uint64_t{1} << 16;

// Order-preserving unsigned keys: a < b as values iff Key(a) < Key(b).
uint64_t IntKey(int64_t v) { return static_cast<uint64_t>(v) ^ kSignBit; }

uint64_t DoubleKey(double v) {
  // -0.0 == +0.0 in the value order, so both take +0.0's key. No NaN gets
  // here: Column stores it as null.
  const uint64_t bits = std::bit_cast<uint64_t>(v == 0.0 ? 0.0 : v);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

void AppendCell(const Column& from, int64_t row, Column* to) {
  const size_t i = static_cast<size_t>(row);
  switch (from.type()) {
    case DataType::kInt64:
      to->AppendInt(from.ints()[i]);
      return;
    case DataType::kDouble:
      to->AppendDouble(from.doubles()[i]);
      return;
    case DataType::kString:
      to->AppendString(from.strings()[i]);
      return;
  }
}

/// Ranks m entries that come sorted by (key, row): each new key opens a
/// rank whose dictionary value is that of its first, so smallest, row.
template <typename KeyAt, typename RowAt>
void RankSorted(const Column& column, size_t m, KeyAt key_at, RowAt row_at,
                EncodedColumn* out) {
  size_t distinct = 0;
  for (size_t i = 0; i < m; ++i) {
    distinct += i == 0 || key_at(i) != key_at(i - 1);
  }
  out->dictionary.Reserve(out->cardinality + static_cast<int64_t>(distinct));
  for (size_t i = 0; i < m; ++i) {
    const int64_t row = row_at(i);
    if (i == 0 || key_at(i) != key_at(i - 1)) {
      AppendCell(column, row, &out->dictionary);
      ++out->cardinality;
    }
    out->ranks[static_cast<size_t>(row)] = out->cardinality - 1;
  }
}

/// Ranks the non-null cells of a numeric column by `key_of(row)`.
template <typename KeyOf>
void RankNumeric(const Column& column, KeyOf key_of, EncodedColumn* out) {
  const int64_t n = column.size();
  const size_t m = static_cast<size_t>(n - column.null_count());
  if (m == 0) return;
  uint64_t lo = UINT64_MAX;
  uint64_t hi = 0;
  for (int64_t r = 0; r < n; ++r) {
    if (column.IsNull(r)) continue;
    const uint64_t key = key_of(r);
    lo = std::min(lo, key);
    hi = std::max(hi, key);
  }
  const uint64_t span = hi - lo;

  if (span <= 4 * static_cast<uint64_t>(n) + kDirectSlack) {
    // Direct addressing: slot[key - lo] holds the key's first row, then
    // its rank.
    std::vector<int32_t> slot(static_cast<size_t>(span) + 1, -1);
    for (int64_t r = 0; r < n; ++r) {
      if (column.IsNull(r)) continue;
      int32_t& s = slot[static_cast<size_t>(key_of(r) - lo)];
      if (s < 0) s = static_cast<int32_t>(r);
    }
    const auto distinct = std::count_if(slot.begin(), slot.end(),
                                        [](int32_t s) { return s >= 0; });
    out->dictionary.Reserve(out->cardinality + distinct);
    for (int32_t& s : slot) {
      if (s < 0) continue;
      AppendCell(column, s, &out->dictionary);
      s = out->cardinality++;
    }
    for (int64_t r = 0; r < n; ++r) {
      if (column.IsNull(r)) continue;
      out->ranks[static_cast<size_t>(r)] =
          slot[static_cast<size_t>(key_of(r) - lo)];
    }
    return;
  }

  const int row_bits = std::bit_width(static_cast<uint64_t>(n - 1));
  const int key_bits = std::bit_width(span);
  if (key_bits + row_bits <= 64) {
    // (key - lo, row) packed into one word: the radix sort orders equal
    // keys by row, so no stable pass is needed.
    std::vector<uint64_t> packed(m);
    std::vector<uint64_t> tmp(m);
    size_t i = 0;
    for (int64_t r = 0; r < n; ++r) {
      if (column.IsNull(r)) continue;
      packed[i++] = (key_of(r) - lo) << row_bits | static_cast<uint64_t>(r);
    }
    const uint64_t* sorted = RadixSortKeys(packed.data(), tmp.data(), m,
                                           key_bits + row_bits);
    const uint64_t row_mask = (uint64_t{1} << row_bits) - 1;
    RankSorted(
        column, m,
        [sorted, row_bits](size_t j) { return sorted[j] >> row_bits; },
        [sorted, row_mask](size_t j) {
          return static_cast<int64_t>(sorted[j] & row_mask);
        },
        out);
    return;
  }

  // Key and row do not fit one word together: sort flat (key, row) pairs.
  std::vector<std::pair<uint64_t, int32_t>> pairs;
  pairs.reserve(m);
  for (int64_t r = 0; r < n; ++r) {
    if (!column.IsNull(r)) {
      pairs.emplace_back(key_of(r), static_cast<int32_t>(r));
    }
  }
  std::sort(pairs.begin(), pairs.end());
  RankSorted(
      column, m, [&pairs](size_t j) { return pairs[j].first; },
      [&pairs](size_t j) { return static_cast<int64_t>(pairs[j].second); },
      out);
}

/// Ranks the non-null cells of a string column: numbers the distinct
/// strings by first occurrence through a hash table, sorts only those,
/// then maps every row.
void RankStrings(const Column& column, EncodedColumn* out) {
  const std::vector<std::string>& v = column.strings();
  const int64_t n = column.size();
  // ranks[row] holds the row's string id until the last loop; first_row
  // maps an id to its first row, and later to its rank.
  std::vector<int32_t> first_row;
  {
    const size_t cap = std::bit_ceil(static_cast<size_t>(n + n / 2 + 1));
    const size_t mask = cap - 1;
    std::vector<int32_t> table(cap, -1);
    const std::hash<std::string> hash;
    for (int64_t r = 0; r < n; ++r) {
      if (column.IsNull(r)) continue;
      const std::string& s = v[static_cast<size_t>(r)];
      size_t h = hash(s) & mask;
      while (table[h] >= 0 &&
             v[static_cast<size_t>(first_row[static_cast<size_t>(table[h])])] !=
                 s) {
        h = (h + 1) & mask;
      }
      if (table[h] < 0) {
        table[h] = static_cast<int32_t>(first_row.size());
        first_row.push_back(static_cast<int32_t>(r));
      }
      out->ranks[static_cast<size_t>(r)] = table[h];
    }
  }
  const auto text = [&](int32_t id) -> const std::string& {
    return v[static_cast<size_t>(first_row[static_cast<size_t>(id)])];
  };
  std::vector<int32_t> order(first_row.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&text](int32_t a, int32_t b) { return text(a) < text(b); });

  out->dictionary.Reserve(out->cardinality +
                          static_cast<int64_t>(order.size()));
  for (int32_t id : order) out->dictionary.AppendString(text(id));
  for (int32_t id : order) {
    first_row[static_cast<size_t>(id)] = out->cardinality++;
  }
  for (int64_t r = 0; r < n; ++r) {
    if (column.IsNull(r)) continue;
    int32_t& rank = out->ranks[static_cast<size_t>(r)];
    rank = first_row[static_cast<size_t>(rank)];
  }
}

}  // namespace

EncodedColumn EncodeColumn(const Column& column) {
  const int64_t n = column.size();
  AOD_CHECK_MSG(n <= INT32_MAX, "column '%s' has %lld rows, over 2^31 - 1",
                column.name().c_str(), static_cast<long long>(n));
  EncodedColumn out;
  out.name = column.name();
  out.ranks.assign(static_cast<size_t>(n), 0);
  out.dictionary = Column(column.name(), column.type());
  // Nulls sort first and share rank 0, matching Value's documented total
  // order.
  if (column.null_count() > 0) {
    out.dictionary.AppendNull();
    out.cardinality = 1;
  }
  switch (column.type()) {
    case DataType::kInt64: {
      const std::vector<int64_t>& v = column.ints();
      RankNumeric(
          column,
          [&v](int64_t r) { return IntKey(v[static_cast<size_t>(r)]); },
          &out);
      break;
    }
    case DataType::kDouble: {
      const std::vector<double>& v = column.doubles();
      RankNumeric(
          column,
          [&v](int64_t r) { return DoubleKey(v[static_cast<size_t>(r)]); },
          &out);
      break;
    }
    case DataType::kString:
      RankStrings(column, &out);
      break;
  }
  return out;
}

EncodedTable EncodeTable(const Table& table) {
  std::vector<EncodedColumn> cols;
  cols.reserve(static_cast<size_t>(table.num_columns()));
  for (int c = 0; c < table.num_columns(); ++c) {
    cols.push_back(EncodeColumn(table.column(c)));
  }
  return EncodedTable(std::move(cols), table.num_rows());
}

EncodedTable EncodedTableFromInts(
    const std::vector<std::string>& names,
    const std::vector<std::vector<int64_t>>& columns) {
  AOD_CHECK(names.size() == columns.size());
  int64_t n = columns.empty() ? 0 : static_cast<int64_t>(columns[0].size());
  std::vector<EncodedColumn> cols;
  for (size_t c = 0; c < columns.size(); ++c) {
    AOD_CHECK_MSG(static_cast<int64_t>(columns[c].size()) == n,
                  "ragged input column %zu", c);
    Column col(names[c], DataType::kInt64);
    for (int64_t v : columns[c]) col.AppendInt(v);
    cols.push_back(EncodeColumn(col));
  }
  return EncodedTable(std::move(cols), n);
}

}  // namespace aod
