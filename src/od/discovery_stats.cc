#include "od/discovery_stats.h"

#include <numeric>
#include <sstream>

#include "common/string_util.h"

namespace aod {
namespace {

void EnsureSize(std::vector<int64_t>* v, int level) {
  if (static_cast<int>(v->size()) <= level) {
    v->resize(static_cast<size_t>(level) + 1, 0);
  }
}

}  // namespace

double DiscoveryStats::OcValidationShare() const {
  if (total_seconds <= 0.0) return 0.0;
  return oc_validation_seconds / total_seconds;
}

double DiscoveryStats::AverageOcLevel() const {
  int64_t count = 0;
  int64_t weighted = 0;
  for (size_t level = 0; level < ocs_per_level.size(); ++level) {
    count += ocs_per_level[level];
    weighted += ocs_per_level[level] * static_cast<int64_t>(level);
  }
  if (count == 0) return 0.0;
  return static_cast<double>(weighted) / static_cast<double>(count);
}

int64_t DiscoveryStats::TotalOcs() const {
  return std::accumulate(ocs_per_level.begin(), ocs_per_level.end(),
                         int64_t{0});
}

int64_t DiscoveryStats::TotalOfds() const {
  return std::accumulate(ofds_per_level.begin(), ofds_per_level.end(),
                         int64_t{0});
}

int64_t DiscoveryStats::TotalFds() const {
  return std::accumulate(fds_per_level.begin(), fds_per_level.end(),
                         int64_t{0});
}

int64_t DiscoveryStats::TotalAfds() const {
  return std::accumulate(afds_per_level.begin(), afds_per_level.end(),
                         int64_t{0});
}

void DiscoveryStats::RecordOcAtLevel(int level) {
  EnsureSize(&ocs_per_level, level);
  ++ocs_per_level[static_cast<size_t>(level)];
}

void DiscoveryStats::RecordOfdAtLevel(int level) {
  EnsureSize(&ofds_per_level, level);
  ++ofds_per_level[static_cast<size_t>(level)];
}

void DiscoveryStats::RecordFdAtLevel(int level) {
  EnsureSize(&fds_per_level, level);
  ++fds_per_level[static_cast<size_t>(level)];
}

void DiscoveryStats::RecordAfdAtLevel(int level) {
  EnsureSize(&afds_per_level, level);
  ++afds_per_level[static_cast<size_t>(level)];
}

void DiscoveryStats::RecordNodesAtLevel(int level, int64_t count) {
  EnsureSize(&nodes_per_level, level);
  nodes_per_level[static_cast<size_t>(level)] += count;
}

std::string DiscoveryStats::ToString() const {
  // FD/AFD lines and columns appear only when those kinds actually ran,
  // so the report for a default-kind (OC/OFD) run is byte-identical to
  // the pre-multi-kind format.
  const bool fd_kinds_ran =
      fd_candidates_validated + afd_candidates_validated > 0;
  std::ostringstream out;
  out << "total time: " << FormatDouble(total_seconds, 3) << " s wall, "
      << threads_used << (threads_used == 1 ? " thread" : " threads") << "\n"
      << "  OC validation:  " << FormatDouble(oc_validation_seconds, 3)
      << " s CPU (" << FormatDouble(100.0 * OcValidationShare(), 1)
      << "% of total; summed across workers)\n"
      << "  OFD validation: " << FormatDouble(ofd_validation_seconds, 3)
      << " s CPU\n"
      << (fd_kinds_ran
              ? "  FD validation:  " + FormatDouble(fd_validation_seconds, 3) +
                    " s CPU\n" + "  AFD validation: " +
                    FormatDouble(afd_validation_seconds, 3) + " s CPU\n"
              : "")
      << "  partitions:     " << FormatDouble(partition_seconds, 3)
      << " s CPU (" << partitions_computed << " products)\n"
      << "  planner:        " << planner_derivations << " planned derivations"
      << ", cost est " << planner_cost_estimated << " / realized "
      << planner_cost_realized << " rows\n"
      << "  partition memory: "
      << FormatDouble(static_cast<double>(partition_bytes_peak) / (1 << 20), 2)
      << " MiB peak, "
      << FormatDouble(static_cast<double>(partition_bytes_evicted) / (1 << 20),
                      2)
      << " MiB evicted, "
      << FormatDouble(static_cast<double>(partition_bytes_final) / (1 << 20),
                      2)
      << " MiB final (" << partitions_evicted << " evicted)\n"
      << "  phase wall clock: candidates "
      << FormatDouble(candidate_wall_seconds, 3) << " s, validation "
      << FormatDouble(validation_wall_seconds, 3) << " s, partitions "
      << FormatDouble(partition_wall_seconds, 3) << " s, merge "
      << FormatDouble(merge_wall_seconds, 3) << " s\n"
      << (shards_used > 0
              ? "  shards:         " + std::to_string(shards_used) +
                    " shard runners, " +
                    FormatDouble(
                        static_cast<double>(shard_bytes_wire) / (1 << 20),
                        2) +
                    " MiB shipped over the wire\n"
              : "")
      << (shard_retries + shard_respawns + shard_fallback_shards +
                      shard_footers_missing >
                  0
              ? "  shard recovery: " + std::to_string(shard_retries) +
                    " retries, " + std::to_string(shard_respawns) +
                    " respawns, " + std::to_string(shard_fallback_shards) +
                    " shards fell back in-process, " +
                    std::to_string(shard_footers_missing) +
                    " footers lost\n"
              : "")
      << "candidates: " << oc_candidates_validated << " OC validated, "
      << oc_candidates_pruned << " OC pruned, " << ofd_candidates_validated
      << " OFD validated"
      << (fd_kinds_ran ? ", " + std::to_string(fd_candidates_validated) +
                             " FD validated, " +
                             std::to_string(afd_candidates_validated) +
                             " AFD validated"
                       : "")
      << "\n"
      << "lattice: " << nodes_processed << " nodes over " << levels_processed
      << " levels\n"
      << "found: " << TotalOcs() << " OCs (avg level "
      << FormatDouble(AverageOcLevel(), 2) << "), " << TotalOfds() << " OFDs"
      << (fd_kinds_ran ? ", " + std::to_string(TotalFds()) + " FDs, " +
                             std::to_string(TotalAfds()) + " AFDs"
                       : "")
      << "\n";
  out << (fd_kinds_ran ? "per level (level: nodes / OCs / OFDs / FDs / AFDs):\n"
                       : "per level (level: nodes / OCs / OFDs):\n");
  size_t max_level = nodes_per_level.size();
  max_level = std::max(max_level, ocs_per_level.size());
  max_level = std::max(max_level, ofds_per_level.size());
  if (fd_kinds_ran) {
    max_level = std::max(max_level, fds_per_level.size());
    max_level = std::max(max_level, afds_per_level.size());
  }
  for (size_t level = 1; level < max_level; ++level) {
    auto at = [level](const std::vector<int64_t>& v) {
      return level < v.size() ? v[level] : 0;
    };
    out << "  " << level << ": " << at(nodes_per_level) << " / "
        << at(ocs_per_level) << " / " << at(ofds_per_level);
    if (fd_kinds_ran) {
      out << " / " << at(fds_per_level) << " / " << at(afds_per_level);
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace aod
