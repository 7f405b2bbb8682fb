// Cross-module integration tests: CSV -> encode -> discover pipelines,
// the dataset simulators under full discovery, validator head-to-heads at
// realistic scale, and the error-repair loop from the paper's Fig. 1.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "data/csv_parser.h"
#include "data/encoder.h"
#include "gen/error_injector.h"
#include "gen/flight_generator.h"
#include "gen/ncvoter_generator.h"
#include "od/aoc_iterative_validator.h"
#include "od/aoc_lis_validator.h"
#include "od/discovery.h"
#include "od/interestingness.h"
#include "od/oc_validator.h"
#include "partition/partition_cache.h"
#include "test_util.h"

namespace aod {
namespace {

TEST(IntegrationTest, CsvToDiscoveryPipeline) {
  // The paper's Table 1 as CSV text, end to end.
  const char* csv =
      "pos,exp,sal,taxGrp,perc,tax,bonus\n"
      "sec,1,20,A,10,2.0,1\n"
      "sec,3,25,A,10,2.5,1\n"
      "dev,1,30,A,1,0.3,3\n"
      "sec,5,40,B,30,12.0,2\n"
      "dev,3,50,B,3,1.5,4\n"
      "dev,5,55,B,30,16.5,4\n"
      "dev,5,60,B,3,1.8,7\n"
      "dev,-1,90,C,8,7.2,7\n"
      "dir,8,200,C,8,16.0,10\n";
  Table table = ParseCsv(csv).value();
  EncodedTable enc = EncodeTable(table);
  DiscoveryOptions options;
  options.epsilon = 0.45;
  DiscoveryResult result = DiscoverOds(enc, options);
  int sal = enc.ColumnIndex("sal");
  int tax = enc.ColumnIndex("tax");
  const auto ocs = result.Ocs();
  bool found = std::any_of(ocs.begin(), ocs.end(),
                           [&](const DiscoveredDependency* d) {
                             return d->Oc() == CanonicalOc{AttributeSet(),
                                                           sal, tax};
                           });
  EXPECT_TRUE(found) << result.Summary(enc);
}

TEST(IntegrationTest, FlightDiscoveryFindsSeededAocs) {
  Table t = GenerateFlightTable(3000, 8, 42);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.epsilon = 0.12;
  options.validator = ValidatorKind::kOptimal;
  DiscoveryResult result = DiscoverOds(enc, options);
  EXPECT_FALSE(result.timed_out);
  int arr = enc.ColumnIndex("arrDelay");
  int late = enc.ColumnIndex("lateAircraftDelay");
  const auto ocs = result.Ocs();
  bool found = std::any_of(
      ocs.begin(), ocs.end(), [&](const DiscoveredDependency* d) {
        return d->Oc() == CanonicalOc{AttributeSet(), arr, late};
      });
  EXPECT_TRUE(found) << "arrDelay ~ lateAircraftDelay missing:\n"
                     << result.Summary(enc, 40);
}

TEST(IntegrationTest, ExactDiscoveryMissesWhatApproximateFinds) {
  Table t = GenerateFlightTable(2000, 8, 42);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions exact;
  exact.validator = ValidatorKind::kExact;
  DiscoveryOptions approx;
  approx.validator = ValidatorKind::kOptimal;
  approx.epsilon = 0.12;
  DiscoveryResult re = DiscoverOds(enc, exact);
  DiscoveryResult ra = DiscoverOds(enc, approx);
  int arr = enc.ColumnIndex("arrDelay");
  int late = enc.ColumnIndex("lateAircraftDelay");
  auto has_root_oc = [&](const DiscoveryResult& r) {
    const auto ocs = r.Ocs();
    return std::any_of(ocs.begin(), ocs.end(),
                       [&](const DiscoveredDependency* d) {
                         return d->Oc() == CanonicalOc{AttributeSet(), arr,
                                                       late};
                       });
  };
  EXPECT_FALSE(has_root_oc(re));
  EXPECT_TRUE(has_root_oc(ra));
  // Exp-5 shape: approximate dependencies sit at lower lattice levels.
  if (re.CountOfKind(DependencyKind::kOc) > 0 &&
      ra.CountOfKind(DependencyKind::kOc) > 0) {
    EXPECT_LE(ra.stats.AverageOcLevel(), re.stats.AverageOcLevel() + 1e-9);
  }
}

TEST(IntegrationTest, OptimalAndIterativeAgreeAwayFromBoundary) {
  // Where no candidate's true factor lies between eps and the iterative
  // overestimate, both discoveries agree. We verify agreement on clean
  // exact data (factor 0 everywhere relevant).
  EncodedTable t = EncodedTableFromInts(
      {"a", "b", "c"},
      {{0, 0, 1, 1, 2, 2}, {1, 1, 2, 2, 3, 3}, {5, 5, 4, 4, 3, 3}});
  DiscoveryOptions opt;
  opt.validator = ValidatorKind::kOptimal;
  opt.epsilon = 0.0;
  DiscoveryOptions it;
  it.validator = ValidatorKind::kIterative;
  it.epsilon = 0.0;
  DiscoveryResult ro = DiscoverOds(t, opt);
  DiscoveryResult ri = DiscoverOds(t, it);
  const auto ro_ocs = ro.Ocs(), ri_ocs = ri.Ocs();
  ASSERT_EQ(ro_ocs.size(), ri_ocs.size());
  for (size_t i = 0; i < ro_ocs.size(); ++i) {
    EXPECT_TRUE(ro_ocs[i]->Oc() == ri_ocs[i]->Oc());
  }
}

TEST(IntegrationTest, RemovalSetFlagsInjectedErrors) {
  // The Fig. 1 loop: inject scale errors into a clean monotone pair, then
  // confirm the minimal removal set points at (mostly) injected rows.
  Table t = GenerateFlightTable(2000, 9, 7);
  // distance (7) -> airTime (8) has 5% natural violations; plant extra
  // corrupted cells and check they are flagged.
  std::set<int64_t> dirty;
  {
    // Find rows the injector changed by comparing against a fresh copy.
    Table clean = GenerateFlightTable(2000, 9, 7);
    InjectScaleErrors(&t, "airTime", 0.03, 10.0, 99).value();
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      if (!(t.GetValue(r, 8) == clean.GetValue(r, 8))) dirty.insert(r);
    }
  }
  ASSERT_GT(dirty.size(), 10u);
  EncodedTable enc = EncodeTable(t);
  auto whole = StrippedPartition::WholeRelation(enc.num_rows());
  ValidatorOptions vo;
  vo.collect_removal_set = true;
  vo.early_exit = false;
  ValidationOutcome out =
      ValidateAocOptimal(enc, whole, 7, 8, 1.0, enc.num_rows(), vo);
  // Most injected errors are large upward scalings of mid-range values,
  // so they appear in the minimal removal set.
  int64_t flagged_dirty = 0;
  for (int32_t r : out.removal_rows) {
    if (dirty.count(r)) ++flagged_dirty;
  }
  EXPECT_GT(static_cast<double>(flagged_dirty) /
                static_cast<double>(dirty.size()),
            0.5);
}

TEST(IntegrationTest, InterestingnessPrefersSmallContexts) {
  Table t = GenerateNcVoterTable(2000, 10, 5);
  EncodedTable enc = EncodeTable(t);
  PartitionCache cache(&enc);
  double empty_ctx =
      InterestingnessScore(*cache.Get(AttributeSet()), 0, 2000);
  double one_ctx = InterestingnessScore(
      *cache.Get(AttributeSet::Of({1})), 1, 2000);
  double two_ctx = InterestingnessScore(
      *cache.Get(AttributeSet::Of({1, 9})), 2, 2000);
  EXPECT_GT(empty_ctx, one_ctx);
  EXPECT_GT(one_ctx, two_ctx);
  EXPECT_EQ(empty_ctx, 1.0);
}

TEST(IntegrationTest, NcVoterDiscoveryRunsCleanly) {
  Table t = GenerateNcVoterTable(1500, 10, 11);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.epsilon = 0.20;
  DiscoveryResult result = DiscoverOds(enc, options);
  EXPECT_FALSE(result.timed_out);
  // The seeded exact OD zip -> county appears as OC + OFD.
  int zip = enc.ColumnIndex("zip");
  int county = enc.ColumnIndex("county");
  const auto ocs = result.Ocs();
  bool oc_found = std::any_of(
      ocs.begin(), ocs.end(), [&](const DiscoveredDependency* d) {
        return d->Oc() == CanonicalOc{AttributeSet(), zip, county};
      });
  EXPECT_TRUE(oc_found) << result.Summary(enc, 50);
  const auto ofds = result.Ofds();
  bool ofd_found = std::any_of(
      ofds.begin(), ofds.end(), [&](const DiscoveredDependency* d) {
        return d->Ofd() == CanonicalOfd{AttributeSet::Of({zip}), county};
      });
  EXPECT_TRUE(ofd_found);
}

TEST(IntegrationTest, LargerThresholdNeverSlowerInValidations) {
  // Exp-3 shape: for the optimal validator, a larger threshold does not
  // increase the number of OC validations by more than the extra
  // discoveries it unlocks (pruning only improves). We assert the weaker
  // invariant that candidate counts do not explode.
  Table t = GenerateFlightTable(1200, 8, 21);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions lo;
  lo.epsilon = 0.0;
  DiscoveryOptions hi;
  hi.epsilon = 0.25;
  DiscoveryResult rlo = DiscoverOds(enc, lo);
  DiscoveryResult rhi = DiscoverOds(enc, hi);
  EXPECT_LE(rhi.stats.oc_candidates_validated,
            rlo.stats.oc_candidates_validated);
}

TEST(IntegrationTest, SummaryMentionsNamedColumns) {
  Table t = GenerateFlightTable(500, 6, 1);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.epsilon = 0.15;
  DiscoveryResult result = DiscoverOds(enc, options);
  std::string summary = result.Summary(enc);
  EXPECT_NE(summary.find("OCs ("), std::string::npos);
  EXPECT_NE(summary.find("OFDs ("), std::string::npos);
}

// ------------------------------------------------- csv_discovery CLI --

/// The csv_discovery binary next to this test binary ($AOD_CSV_DISCOVERY
/// overrides), or "" when it was not built.
std::string CsvDiscoveryBinaryPath() {
  if (const char* env = std::getenv("AOD_CSV_DISCOVERY")) return env;
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  const std::string sibling =
      (std::filesystem::path(buf).parent_path() / "csv_discovery").string();
  return std::filesystem::exists(sibling) ? sibling : "";
}

/// Runs `binary` with `args` (output discarded) and returns its wait
/// status.
int RunQuietly(const std::string& binary,
               const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_WRONLY);
    ::dup2(null_fd, STDOUT_FILENO);
    ::dup2(null_fd, STDERR_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  int status = 0;
  if (pid < 0 || ::waitpid(pid, &status, 0) != pid) return -1;
  return status;
}

TEST(CsvDiscoveryCliTest, OutsideInputExitsTwoInsteadOfAborting) {
  const std::string binary = CsvDiscoveryBinaryPath();
  if (binary.empty()) {
    GTEST_SKIP() << "csv_discovery not found next to the test binary";
  }
  // One column past the attribute limit, two rows.
  const std::filesystem::path wide_csv =
      std::filesystem::temp_directory_path() /
      ("aod_wide_" + std::to_string(::getpid()) + ".csv");
  {
    std::ofstream out(wide_csv);
    for (int row = 0; row < 3; ++row) {
      for (int c = 0; c <= AttributeSet::kMaxAttributes; ++c) {
        if (c > 0) out << ',';
        if (row == 0) {
          out << 'c' << c;
        } else {
          out << row * c;
        }
      }
      out << '\n';
    }
  }
  const std::vector<std::vector<std::string>> cases = {
      {"--epsilon=2"},
      {"--epsilon=-0.5"},
      {"--shards=-3"},
      {"--shards=2000"},
      {wide_csv.string()},
  };
  for (const std::vector<std::string>& args : cases) {
    SCOPED_TRACE(args.front());
    const int status = RunQuietly(binary, args);
    ASSERT_TRUE(WIFEXITED(status)) << "wait status " << status;
    EXPECT_EQ(WEXITSTATUS(status), 2);
  }
  std::filesystem::remove(wide_csv);
}

}  // namespace
}  // namespace aod
