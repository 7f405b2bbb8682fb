// Stripped partitions (TANE [3], reused by FASTOD [9]).
//
// A partition Π_X groups tuples by equality on the attribute set X
// (paper Def. 2.8). The *stripped* form drops singleton classes: a class
// of one tuple can contribute neither a swap (Def. 2.5) nor a split
// (Def. 2.6), so every validator in this library is correct on the
// stripped form while the representation shrinks dramatically as contexts
// grow (at deep lattice levels almost all classes are singletons).
//
// Memory layout: CSR (compressed sparse row). All row ids live in one
// contiguous `row_ids` array; `class_offsets` (length num_classes + 1)
// delimits the classes. Two arrays per partition — not one heap block per
// class — so a partition costs exactly
//   4 * rows_covered + 4 * (num_classes + 1) bytes
// of payload, products write their output with zero per-class
// allocations, and a partition is a trivially serializable unit for the
// planned cross-shard shipping (ROADMAP). Classes are exposed as
// `std::span<const int32_t>` views into `row_ids`.
//
// Canonical normal form. Every partition this library materializes is
// *canonical*: rows ascend within each class and classes are ordered by
// their smallest contained row id. FromColumn and WholeRelation build
// canonical output directly; Product restores the form with a cheap
// class-reorder pass. Canonical partitions make the partition *value*
// (CSR bytes included) a pure function of the attribute set, independent
// of the derivation path — Π_{AB}·Π_C and Π_{BC}·Π_A yield identical
// arrays — which is what lets the cache plan derivations by cost instead
// of a fixed structural rule, and what a cross-shard reducer can hash.
#ifndef AOD_PARTITION_STRIPPED_PARTITION_H_
#define AOD_PARTITION_STRIPPED_PARTITION_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/encoder.h"

namespace aod {

/// Scratch buffers reused across partition products; one per discovery
/// run (or per concurrent product — see PartitionCache's pool). Holds the
/// tuple->class translation table plus the counting-sort work arrays, so
/// a steady-state product performs no heap allocation beyond its own
/// exactly-sized output.
class PartitionScratch {
 public:
  explicit PartitionScratch(int64_t num_rows)
      : class_of_(static_cast<size_t>(num_rows), -1) {}

  std::vector<int32_t>& class_of() { return class_of_; }

  /// Grows the per-class bucket arrays to cover `num_classes` classes.
  void EnsureClassCapacity(int64_t num_classes) {
    if (static_cast<int64_t>(bucket_counts_.size()) < num_classes) {
      bucket_counts_.resize(static_cast<size_t>(num_classes), 0);
      bucket_starts_.resize(static_cast<size_t>(num_classes), 0);
    }
  }

  /// Epoch-stamped bucket state, (epoch << 32) | value. Stamping one
  /// right-hand class's buckets with a fresh epoch makes every stale
  /// entry (any older epoch) read as "empty", so the arrays are never
  /// cleared between classes or between products.
  std::vector<int64_t>& bucket_counts() { return bucket_counts_; }
  std::vector<int64_t>& bucket_starts() { return bucket_starts_; }
  /// First-touch log of the counting pass: the classes hit by the current
  /// right-hand class, in first-occurrence order (= output class order).
  std::vector<int32_t>& touched() { return touched_; }
  /// Staging buffers for the product's output (copied exactly-sized into
  /// the result once the total is known).
  std::vector<int32_t>& offsets_tmp() { return offsets_tmp_; }
  std::vector<int32_t>& rows_tmp(int64_t capacity) {
    if (static_cast<int64_t>(rows_tmp_.size()) < capacity) {
      rows_tmp_.resize(static_cast<size_t>(capacity));
    }
    return rows_tmp_;
  }
  /// Class permutation for the canonical-form reorder pass.
  std::vector<int32_t>& class_order_tmp() { return class_order_tmp_; }

  /// Reserves `count` fresh epochs and returns the first. Epochs fit the
  /// high 32 bits of the stamped arrays; on (cumulative) overflow the
  /// arrays are re-zeroed and the clock restarts.
  int64_t ReserveEpochs(int64_t count) {
    if (next_epoch_ + count > std::numeric_limits<int32_t>::max()) {
      std::fill(bucket_counts_.begin(), bucket_counts_.end(), 0);
      std::fill(bucket_starts_.begin(), bucket_starts_.end(), 0);
      next_epoch_ = 1;
    }
    int64_t first = next_epoch_;
    next_epoch_ += count;
    return first;
  }

 private:
  std::vector<int32_t> class_of_;
  std::vector<int64_t> bucket_counts_;
  std::vector<int64_t> bucket_starts_;
  std::vector<int32_t> touched_;
  std::vector<int32_t> offsets_tmp_;
  std::vector<int32_t> rows_tmp_;
  std::vector<int32_t> class_order_tmp_;
  int64_t next_epoch_ = 1;
};

/// A stripped partition: equivalence classes of row ids, each of size >= 2,
/// stored in CSR form.
class StrippedPartition {
 public:
  /// Lightweight view of one equivalence class — points into `row_ids`.
  using ClassSpan = std::span<const int32_t>;

  StrippedPartition() = default;

  /// Partition by a single attribute, O(n). Output is canonical: classes
  /// in first-occurrence (= smallest row id) order, rows ascending.
  static StrippedPartition FromColumn(const EncodedColumn& column);

  /// Π over the empty attribute set: one class holding every tuple
  /// (stripped away entirely when the table has fewer than 2 rows).
  static StrippedPartition WholeRelation(int64_t num_rows);

  /// Builds directly from explicit classes (tests). Classes of size < 2
  /// are stripped; row ids within a class are kept in the given order —
  /// i.e. NOT normalized; call Normalize() for the canonical form.
  static StrippedPartition FromClasses(std::vector<std::vector<int32_t>> classes);

  /// Stripped product Π_self · Π_other = Π over the union of the two
  /// attribute sets. O(||self|| + ||other|| + C log C) where C is the
  /// output class count: a two-pass counting sort per `other` class —
  /// count buckets and assign their exact output slots, then write row
  /// ids directly into place — with no per-class buckets and zero
  /// allocations beyond the exactly-sized result (work arrays, including
  /// epoch-stamped bucket state that never needs clearing, live in
  /// `scratch`). When both inputs are canonical the output is canonical
  /// too: a final pass reorders classes by smallest row id, making the
  /// result independent of which operand order or derivation path
  /// produced it (the cache's cost-based planner depends on this).
  /// `num_rows` is the table size; `scratch` may be nullptr (a temporary
  /// table is allocated).
  StrippedPartition Product(const StrippedPartition& other, int64_t num_rows,
                            PartitionScratch* scratch = nullptr) const;

  /// Rewrites this partition into canonical normal form: rows ascending
  /// within each class, classes ordered by smallest contained row id.
  /// O(||Π|| log ||Π||); needed only for partitions built from explicit
  /// classes — FromColumn/WholeRelation/Product output is already
  /// canonical.
  void Normalize();

  /// True iff the partition is in canonical normal form.
  bool IsCanonical() const;

  int64_t num_classes() const {
    return class_offsets_.empty()
               ? 0
               : static_cast<int64_t>(class_offsets_.size()) - 1;
  }

  /// The i-th equivalence class as a span over the row-id arena.
  ClassSpan cls(int64_t i) const {
    const size_t lo = static_cast<size_t>(class_offsets_[static_cast<size_t>(i)]);
    const size_t hi =
        static_cast<size_t>(class_offsets_[static_cast<size_t>(i) + 1]);
    return ClassSpan(row_ids_.data() + lo, hi - lo);
  }

  /// Iterable view yielding every class as a ClassSpan (range-for).
  class ClassIterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = ClassSpan;
    using difference_type = std::ptrdiff_t;

    ClassIterator(const StrippedPartition* p, int64_t i) : p_(p), i_(i) {}
    ClassSpan operator*() const { return p_->cls(i_); }
    ClassIterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const ClassIterator& o) const { return i_ == o.i_; }
    bool operator!=(const ClassIterator& o) const { return i_ != o.i_; }

   private:
    const StrippedPartition* p_;
    int64_t i_;
  };

  class ClassRange {
   public:
    explicit ClassRange(const StrippedPartition* p) : p_(p) {}
    ClassIterator begin() const { return ClassIterator(p_, 0); }
    ClassIterator end() const { return ClassIterator(p_, p_->num_classes()); }
    bool empty() const { return p_->num_classes() == 0; }

   private:
    const StrippedPartition* p_;
  };

  ClassRange classes() const { return ClassRange(this); }

  /// The flat row-id arena (all classes back to back) and its offsets —
  /// the wire format for shipping a partition across shards.
  const std::vector<int32_t>& row_ids() const { return row_ids_; }
  const std::vector<int32_t>& class_offsets() const { return class_offsets_; }

  /// Appends the CSR wire encoding (little-endian, fixed width) to `out`:
  /// u64 class count, u64 covered-row count, the class_offsets array,
  /// then the row_ids arena. Because every materialized partition is
  /// canonical, the encoding — like the partition value itself — is a
  /// pure function of the attribute set, so shards can compare or hash
  /// shipped partitions byte-wise.
  void SerializeTo(std::vector<uint8_t>* out) const;
  std::vector<uint8_t> Serialize() const {
    std::vector<uint8_t> out;
    SerializeTo(&out);
    return out;
  }

  /// Parses one partition from the front of [data, data + size) as
  /// written by SerializeTo. Rejects (ParseError) truncated buffers and
  /// any structurally invalid payload: offsets that do not start at 0 or
  /// do not ascend by at least 2 (stripped classes have >= 2 rows), row
  /// ids outside [0, num_rows), rows appearing in more than one class,
  /// and partitions not in canonical normal form — a decoded partition
  /// must uphold exactly the invariants a locally materialized one does,
  /// or the cross-shard determinism contract dies silently.
  /// On success `*consumed` (optional) receives the bytes read.
  static Result<StrippedPartition> Deserialize(const uint8_t* data,
                                               size_t size, int64_t num_rows,
                                               size_t* consumed = nullptr);

  /// Sum of class sizes (rows covered by non-singleton classes). Also the
  /// planner's derivation-cost proxy: one Product pass scans exactly the
  /// covered rows of each operand (the left side once, the right side
  /// twice), so rows_covered predicts what extending this partition by
  /// one more attribute costs.
  int64_t rows_covered() const { return rows_covered_; }

  /// TANE's e(Π) = ||Π|| - |Π|: the number of tuples that must change for
  /// the partition to become a set of singletons; equal partitions on X
  /// and X∪{A} (same error) certify the exact FD/OFD X: [] -> A.
  int64_t error() const { return rows_covered_ - num_classes(); }

  /// Exact heap + object footprint in bytes (feeds the cache's
  /// bytes_resident() accounting).
  int64_t bytes() const {
    return static_cast<int64_t>(sizeof(StrippedPartition)) +
           static_cast<int64_t>(row_ids_.capacity() * sizeof(int32_t)) +
           static_cast<int64_t>(class_offsets_.capacity() * sizeof(int32_t));
  }

  /// "{{0,3},{1,2,4}}" for debugging and tests.
  std::string ToString() const;

 private:
  /// Row ids of all classes, concatenated in class order.
  std::vector<int32_t> row_ids_;
  /// class i occupies row_ids_[class_offsets_[i] .. class_offsets_[i+1]).
  /// Empty (not {0}) when the partition has no classes. int32 suffices:
  /// offsets are bounded by rows_covered <= num_rows < 2^31 (row ids are
  /// int32 themselves).
  std::vector<int32_t> class_offsets_;
  int64_t rows_covered_ = 0;
};

}  // namespace aod

#endif  // AOD_PARTITION_STRIPPED_PARTITION_H_
