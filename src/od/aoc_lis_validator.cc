#include "od/aoc_lis_validator.h"

#include <cstdint>

#include "algo/lnds.h"
#include "od/pair_order.h"

namespace aod {
namespace {

/// Shared implementation; `descending_ties` selects the OD variant.
ValidationOutcome ValidateLis(const EncodedTable& table,
                              const StrippedPartition& context_partition,
                              int a, int b, double epsilon,
                              int64_t table_rows,
                              const ValidatorOptions& options,
                              bool descending_ties,
                              ValidatorScratch* scratch) {
  const int64_t max_removals = MaxRemovals(epsilon, table_rows);
  // Line 3 of Algorithm 2: order each class by [A ASC, B ASC] (B DESC
  // within A-ties for the OD variant), with B reversed under the
  // bidirectional polarity (see ValidatorOptions).
  const PairOrder order(table, a, b, options.opposite_polarity,
                        descending_ties);

  ValidationOutcome out;
  ValidatorScratch local;
  ValidatorScratch& s = scratch == nullptr ? local : *scratch;
  for (StrippedPartition::ClassSpan cls : context_partition.classes()) {
    // Line 4: longest non-decreasing subsequence of the B-projection;
    // Line 5: the complement is the removal set for this class.
    if (options.collect_removal_set) {
      std::vector<int32_t>& rows = s.rows();
      std::vector<int32_t>& projection = s.projection();
      rows.assign(cls.begin(), cls.end());
      order.SortRows(rows);
      projection.resize(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) {
        projection[i] = order.Projected(rows[i]);
      }
      std::vector<int32_t> removed_positions = LndsComplement(projection);
      out.removal_size += static_cast<int64_t>(removed_positions.size());
      for (int32_t pos : removed_positions) {
        out.removal_rows.push_back(rows[static_cast<size_t>(pos)]);
      }
    } else {
      // With early exit the LNDS stops mid-class once the candidate
      // provably exceeds its budget.
      const int64_t budget = options.early_exit
                                 ? max_removals - out.removal_size
                                 : INT64_MAX;
      out.removal_size +=
          LndsRemovals(order.Project(cls, s), budget, s.tails());
    }
    if (options.early_exit && out.removal_size > max_removals) {
      out.valid = false;
      out.early_exit = true;
      out.approx_factor = static_cast<double>(out.removal_size) /
                          static_cast<double>(table_rows);
      return out;
    }
  }
  out.valid = out.removal_size <= max_removals;
  out.approx_factor = table_rows == 0
                          ? 0.0
                          : static_cast<double>(out.removal_size) /
                                static_cast<double>(table_rows);
  return out;
}

}  // namespace

ValidationOutcome ValidateAocOptimal(const EncodedTable& table,
                                     const StrippedPartition& context_partition,
                                     int a, int b, double epsilon,
                                     int64_t table_rows,
                                     const ValidatorOptions& options,
                                     ValidatorScratch* scratch) {
  return ValidateLis(table, context_partition, a, b, epsilon, table_rows,
                     options, /*descending_ties=*/false, scratch);
}

ValidationOutcome ValidateAodOptimal(const EncodedTable& table,
                                     const StrippedPartition& context_partition,
                                     int a, int b, double epsilon,
                                     int64_t table_rows,
                                     const ValidatorOptions& options,
                                     ValidatorScratch* scratch) {
  return ValidateLis(table, context_partition, a, b, epsilon, table_rows,
                     options, /*descending_ties=*/true, scratch);
}

}  // namespace aod
