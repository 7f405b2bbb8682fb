#include "partition/stripped_partition.h"

#include <algorithm>

#include "common/endian.h"
#include "common/macros.h"

namespace aod {

StrippedPartition StrippedPartition::FromColumn(const EncodedColumn& column) {
  const int64_t n = static_cast<int64_t>(column.ranks.size());
  std::vector<int32_t> counts(static_cast<size_t>(column.cardinality), 0);
  for (int32_t r : column.ranks) ++counts[static_cast<size_t>(r)];

  StrippedPartition out;
  int64_t total = 0;
  int64_t num_classes = 0;
  for (int32_t v = 0; v < column.cardinality; ++v) {
    if (counts[static_cast<size_t>(v)] >= 2) {
      total += counts[static_cast<size_t>(v)];
      ++num_classes;
    }
  }
  if (num_classes == 0) return out;

  // Counting sort in canonical class order: a surviving rank gets its
  // slot range when its first (= smallest) row is scanned, so classes end
  // up ordered by smallest row id with rows ascending inside — not in
  // rank order, which would depend on the encoding rather than the value.
  out.rows_covered_ = total;
  out.row_ids_.resize(static_cast<size_t>(total));
  out.class_offsets_.reserve(static_cast<size_t>(num_classes) + 1);
  out.class_offsets_.push_back(0);
  std::vector<int32_t> start(static_cast<size_t>(column.cardinality), -1);
  int32_t cursor = 0;
  for (int64_t t = 0; t < n; ++t) {
    const int32_t r = column.ranks[static_cast<size_t>(t)];
    if (counts[static_cast<size_t>(r)] < 2) continue;
    int32_t& s = start[static_cast<size_t>(r)];
    if (s < 0) {
      s = cursor;
      cursor += counts[static_cast<size_t>(r)];
      out.class_offsets_.push_back(cursor);
    }
    out.row_ids_[static_cast<size_t>(s++)] = static_cast<int32_t>(t);
  }
  return out;
}

StrippedPartition StrippedPartition::WholeRelation(int64_t num_rows) {
  StrippedPartition out;
  if (num_rows >= 2) {
    out.row_ids_.resize(static_cast<size_t>(num_rows));
    for (int64_t t = 0; t < num_rows; ++t) {
      out.row_ids_[static_cast<size_t>(t)] = static_cast<int32_t>(t);
    }
    out.class_offsets_ = {0, static_cast<int32_t>(num_rows)};
    out.rows_covered_ = num_rows;
  }
  return out;
}

StrippedPartition StrippedPartition::FromClasses(
    std::vector<std::vector<int32_t>> classes) {
  StrippedPartition out;
  int64_t total = 0;
  int64_t kept = 0;
  for (const auto& cls : classes) {
    if (cls.size() >= 2) {
      total += static_cast<int64_t>(cls.size());
      ++kept;
    }
  }
  if (kept == 0) return out;
  out.row_ids_.reserve(static_cast<size_t>(total));
  out.class_offsets_.reserve(static_cast<size_t>(kept) + 1);
  out.class_offsets_.push_back(0);
  for (const auto& cls : classes) {
    if (cls.size() < 2) continue;
    out.row_ids_.insert(out.row_ids_.end(), cls.begin(), cls.end());
    out.class_offsets_.push_back(static_cast<int32_t>(out.row_ids_.size()));
  }
  out.rows_covered_ = total;
  return out;
}

StrippedPartition StrippedPartition::Product(const StrippedPartition& other,
                                             int64_t num_rows,
                                             PartitionScratch* scratch) const {
  // TANE's STRIPPED_PRODUCT as a two-pass counting sort. Pass 1 sizes the
  // CSR output exactly; pass 2 computes each surviving bucket's start
  // offset and scatters row ids directly into place. Output class order is
  // (other-class index, first occurrence of the self-class within that
  // other class) and rows keep the other class's order — bit-identical to
  // the classic per-class bucket algorithm.
  PartitionScratch local_scratch(scratch == nullptr ? num_rows : 0);
  PartitionScratch& s = scratch == nullptr ? local_scratch : *scratch;
  std::vector<int32_t>& class_of = s.class_of();
  AOD_CHECK_MSG(static_cast<int64_t>(class_of.size()) >= num_rows,
                "scratch sized for %zu rows, table has %lld", class_of.size(),
                static_cast<long long>(num_rows));
  s.EnsureClassCapacity(num_classes());
  const int64_t other_classes = other.num_classes();
  // One fresh epoch per `other` class: stamping a bucket's count/start
  // with the current epoch implicitly empties every bucket of previous
  // classes (and previous products) with zero reset work.
  const int64_t epoch0 = s.ReserveEpochs(other_classes + 1);
  std::vector<int64_t>& bucket_count = s.bucket_counts();
  std::vector<int64_t>& bucket_start = s.bucket_starts();
  std::vector<int32_t>& touched = s.touched();
  std::vector<int32_t>& offsets = s.offsets_tmp();

  const int64_t self_classes = num_classes();
  for (int64_t c = 0; c < self_classes; ++c) {
    for (int32_t t : cls(c)) {
      class_of[static_cast<size_t>(t)] = static_cast<int32_t>(c);
    }
  }

  // Count-then-scatter, fused per `other` class. The counting scan logs
  // each bucket (the subset of the class falling into one `this` class)
  // in first-touch order; surviving (>= 2 row) buckets get their output
  // slots assigned in that order — exactly the emission order of the
  // classic per-class bucket algorithm — and a second scan of the same
  // (still cache-hot) rows writes them directly into place in the
  // staging arena. Classes producing no surviving bucket skip the second
  // scan entirely, which is the common case at deep lattice levels.
  std::vector<int32_t>& staging = s.rows_tmp(other.rows_covered());
  offsets.clear();
  offsets.push_back(0);
  int64_t out_rows = 0;
  for (int64_t k = 0; k < other_classes; ++k) {
    const int64_t epoch = epoch0 + k;
    const int64_t stamp = epoch << 32;
    touched.clear();
    for (int32_t t : other.cls(k)) {
      int32_t c = class_of[static_cast<size_t>(t)];
      if (c < 0) continue;
      int64_t v = bucket_count[static_cast<size_t>(c)];
      if ((v >> 32) != epoch) {
        v = stamp;
        touched.push_back(c);
      }
      bucket_count[static_cast<size_t>(c)] = v + 1;
    }
    bool any_survivor = false;
    for (int32_t c : touched) {
      int64_t n = bucket_count[static_cast<size_t>(c)] & 0xffffffff;
      if (n >= 2) {
        bucket_start[static_cast<size_t>(c)] = stamp | out_rows;
        out_rows += n;
        offsets.push_back(static_cast<int32_t>(out_rows));
        any_survivor = true;
      }
    }
    if (!any_survivor) continue;
    for (int32_t t : other.cls(k)) {
      int32_t c = class_of[static_cast<size_t>(t)];
      if (c < 0) continue;
      int64_t v = bucket_start[static_cast<size_t>(c)];
      if ((v >> 32) == epoch) {
        staging[static_cast<size_t>(v & 0xffffffff)] = t;
        bucket_start[static_cast<size_t>(c)] = v + 1;
      }
    }
  }

  StrippedPartition out;
  out.rows_covered_ = out_rows;
  if (out_rows > 0) {
    // Canonical normal form: emit classes ordered by smallest contained
    // row id. With canonical inputs each staged class's rows are already
    // ascending (they are a subsequence of one ascending `other` class),
    // so its first row is its minimum and only the class order needs
    // fixing — a sort of class indices, not of rows.
    const int64_t emitted = static_cast<int64_t>(offsets.size()) - 1;
    bool in_order = true;
    for (int64_t c = 1; c < emitted; ++c) {
      if (staging[static_cast<size_t>(offsets[static_cast<size_t>(c - 1)])] >
          staging[static_cast<size_t>(offsets[static_cast<size_t>(c)])]) {
        in_order = false;
        break;
      }
    }
    if (in_order) {
      out.class_offsets_.reserve(offsets.size());
      out.class_offsets_.assign(offsets.begin(), offsets.end());
      out.row_ids_.reserve(static_cast<size_t>(out_rows));
      out.row_ids_.assign(staging.begin(),
                          staging.begin() + static_cast<ptrdiff_t>(out_rows));
    } else {
      std::vector<int32_t>& order = s.class_order_tmp();
      order.resize(static_cast<size_t>(emitted));
      for (int64_t c = 0; c < emitted; ++c) {
        order[static_cast<size_t>(c)] = static_cast<int32_t>(c);
      }
      std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
        return staging[static_cast<size_t>(offsets[static_cast<size_t>(a)])] <
               staging[static_cast<size_t>(offsets[static_cast<size_t>(b)])];
      });
      out.class_offsets_.reserve(offsets.size());
      out.class_offsets_.push_back(0);
      out.row_ids_.reserve(static_cast<size_t>(out_rows));
      for (int32_t c : order) {
        out.row_ids_.insert(
            out.row_ids_.end(),
            staging.begin() + offsets[static_cast<size_t>(c)],
            staging.begin() + offsets[static_cast<size_t>(c) + 1]);
        out.class_offsets_.push_back(
            static_cast<int32_t>(out.row_ids_.size()));
      }
    }
  }

  // Restore the translation table to all -1 for the next product.
  for (int32_t t : row_ids_) class_of[static_cast<size_t>(t)] = -1;
  return out;
}

void StrippedPartition::Normalize() {
  const int64_t n = num_classes();
  if (n == 0) return;
  for (int64_t c = 0; c < n; ++c) {
    std::sort(row_ids_.begin() + class_offsets_[static_cast<size_t>(c)],
              row_ids_.begin() + class_offsets_[static_cast<size_t>(c) + 1]);
  }
  std::vector<int32_t> order(static_cast<size_t>(n));
  for (int64_t c = 0; c < n; ++c) order[static_cast<size_t>(c)] =
      static_cast<int32_t>(c);
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return row_ids_[static_cast<size_t>(class_offsets_[static_cast<size_t>(a)])] <
           row_ids_[static_cast<size_t>(class_offsets_[static_cast<size_t>(b)])];
  });
  std::vector<int32_t> rows;
  rows.reserve(row_ids_.size());
  std::vector<int32_t> offsets;
  offsets.reserve(static_cast<size_t>(n) + 1);
  offsets.push_back(0);
  for (int32_t c : order) {
    rows.insert(rows.end(),
                row_ids_.begin() + class_offsets_[static_cast<size_t>(c)],
                row_ids_.begin() + class_offsets_[static_cast<size_t>(c) + 1]);
    offsets.push_back(static_cast<int32_t>(rows.size()));
  }
  row_ids_ = std::move(rows);
  class_offsets_ = std::move(offsets);
}

bool StrippedPartition::IsCanonical() const {
  int32_t prev_first = -1;
  for (int64_t c = 0; c < num_classes(); ++c) {
    ClassSpan rows = cls(c);
    for (size_t i = 1; i < rows.size(); ++i) {
      if (rows[i - 1] >= rows[i]) return false;
    }
    if (rows[0] <= prev_first) return false;
    prev_first = rows[0];
  }
  return true;
}

void StrippedPartition::SerializeTo(std::vector<uint8_t>* out) const {
  using endian::AppendI32;
  using endian::AppendU64;
  AppendU64(out, static_cast<uint64_t>(num_classes()));
  AppendU64(out, static_cast<uint64_t>(row_ids_.size()));
  for (int32_t v : class_offsets_) AppendI32(out, v);
  for (int32_t v : row_ids_) AppendI32(out, v);
}

Result<StrippedPartition> StrippedPartition::Deserialize(const uint8_t* data,
                                                         size_t size,
                                                         int64_t num_rows,
                                                         size_t* consumed) {
  using endian::ReadI32;
  using endian::ReadU64;
  size_t pos = 0;
  uint64_t classes = 0;
  uint64_t rows = 0;
  if (!ReadU64(data, size, &pos, &classes) ||
      !ReadU64(data, size, &pos, &rows)) {
    return Status::ParseError("partition header truncated");
  }
  // Size sanity before any allocation: covered rows are bounded by the
  // table and stripped classes hold >= 2 rows each.
  if (num_rows < 0 || rows > static_cast<uint64_t>(num_rows)) {
    return Status::ParseError("partition claims more covered rows than the "
                              "table holds");
  }
  if (classes > rows / 2) {
    return Status::ParseError("partition claims more classes than 2-row "
                              "classes fit in its rows");
  }
  if ((classes == 0) != (rows == 0)) {
    return Status::ParseError("partition class/row counts inconsistent");
  }

  StrippedPartition out;
  if (classes > 0) {
    out.class_offsets_.reserve(static_cast<size_t>(classes) + 1);
    int32_t prev = 0;
    for (uint64_t c = 0; c <= classes; ++c) {
      int32_t offset = 0;
      if (!ReadI32(data, size, &pos, &offset)) {
        return Status::ParseError("partition offsets truncated");
      }
      if (c == 0 ? offset != 0 : offset < prev + 2) {
        // Offsets start at 0 and ascend by the class size (>= 2).
        return Status::ParseError("partition offsets not ascending by >= 2");
      }
      out.class_offsets_.push_back(offset);
      prev = offset;
    }
    if (static_cast<uint64_t>(prev) != rows) {
      return Status::ParseError("partition offsets do not cover its rows");
    }
  }
  out.row_ids_.reserve(static_cast<size_t>(rows));
  std::vector<uint8_t> seen(static_cast<size_t>(num_rows), 0);
  for (uint64_t r = 0; r < rows; ++r) {
    int32_t row = 0;
    if (!ReadI32(data, size, &pos, &row)) {
      return Status::ParseError("partition row ids truncated");
    }
    if (row < 0 || static_cast<int64_t>(row) >= num_rows) {
      return Status::ParseError("partition row id out of range");
    }
    if (seen[static_cast<size_t>(row)]) {
      return Status::ParseError("partition row id appears in two classes");
    }
    seen[static_cast<size_t>(row)] = 1;
    out.row_ids_.push_back(row);
  }
  out.rows_covered_ = static_cast<int64_t>(rows);
  if (!out.IsCanonical()) {
    return Status::ParseError("partition not in canonical normal form");
  }
  if (consumed != nullptr) *consumed = pos;
  return out;
}

std::string StrippedPartition::ToString() const {
  std::string out = "{";
  for (int64_t i = 0; i < num_classes(); ++i) {
    if (i > 0) out += ",";
    out += "{";
    ClassSpan c = cls(i);
    for (size_t j = 0; j < c.size(); ++j) {
      if (j > 0) out += ",";
      out += std::to_string(c[j]);
    }
    out += "}";
  }
  out += "}";
  return out;
}

}  // namespace aod
