// End-to-end off-box sharding: spawn real shard_runner_main processes,
// run discovery over the socket and process transports, and diff the
// output byte-for-byte against the unsharded run. This is the
// acceptance gate of the off-box seam: shard_transport ∈ {inproc,
// socket, process} × num_shards ∈ {1, 2, 4} must be bit-identical, the
// stats footers must deliver the shard-side counters, and a runner that
// cannot start must surface as a typed error, not a hang or a crash.
//
// The runner binary is found next to this test binary (both live in the
// build root); AOD_SHARD_RUNNER overrides.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "gen/ncvoter_generator.h"
#include "od/discovery.h"
#include "test_util.h"

namespace aod {
namespace {

std::string RunnerBinaryPath() {
  if (const char* env = std::getenv("AOD_SHARD_RUNNER")) return env;
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  const std::string sibling =
      (std::filesystem::path(buf).parent_path() / "shard_runner_main")
          .string();
  return std::filesystem::exists(sibling) ? sibling : "";
}

void AppendDouble(std::string* out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a,", v);  // exact hex fingerprint
  *out += buf;
}

/// Byte-exact serialization of both dependency lists with every payload
/// field — what "diff output byte-for-byte against the unsharded run"
/// means (see parallel_determinism_test for the full-stats variant).
std::string OutputFingerprint(const DiscoveryResult& result) {
  std::string out;
  for (const DiscoveredDependency& d : result.dependencies) {
    out += std::to_string(static_cast<int>(d.kind)) + "," +
           std::to_string(d.context.bits()) + "," + std::to_string(d.a) +
           "," + std::to_string(d.b) + "," + (d.opposite ? "1," : "0,");
    AppendDouble(&out, d.error);
    out += std::to_string(d.removal_size) + "," + std::to_string(d.level) +
           ",";
    AppendDouble(&out, d.interestingness);
    for (int32_t r : d.removal_rows) out += std::to_string(r) + ",";
    out += ';';
  }
  return out;
}

TEST(ShardProcessE2eTest, AllTransportsMatchUnshardedBitExactly) {
  const std::string runner = RunnerBinaryPath();
  if (runner.empty()) {
    GTEST_SKIP() << "shard_runner_main not found next to the test binary";
  }
  Table t = GenerateNcVoterTable(300, 6, 11);
  EncodedTable enc = EncodeTable(t);

  DiscoveryOptions options;
  options.epsilon = 0.1;
  options.collect_removal_sets = true;
  options.num_threads = 2;
  DiscoveryResult unsharded = DiscoverOds(enc, options);
  ASSERT_TRUE(unsharded.shard_status.ok());
  const std::string expected = OutputFingerprint(unsharded);

  options.shard_runner_path = runner;
  for (ShardTransport transport :
       {ShardTransport::kInProcess, ShardTransport::kSocket,
        ShardTransport::kProcess}) {
    options.shard_transport = transport;
    for (int shards : {1, 2, 4}) {
      SCOPED_TRACE(std::string(ShardTransportToString(transport)) +
                   " x shards=" + std::to_string(shards));
      options.num_shards = shards;
      DiscoveryResult sharded = DiscoverOds(enc, options);
      ASSERT_TRUE(sharded.shard_status.ok())
          << sharded.shard_status.ToString();
      EXPECT_EQ(OutputFingerprint(sharded), expected);
      EXPECT_EQ(sharded.stats.shards_used, shards);
      EXPECT_GT(sharded.stats.shard_bytes_wire, 0);
      // Stats footers delivered the shard-side partition counters.
      EXPECT_GT(sharded.stats.partitions_computed, 0);
      EXPECT_GT(sharded.stats.partition_bytes_peak, 0);
    }
  }
}

TEST(ShardProcessE2eTest, ProcessTransportShipsTheTable) {
  const std::string runner = RunnerBinaryPath();
  if (runner.empty()) {
    GTEST_SKIP() << "shard_runner_main not found next to the test binary";
  }
  Table t = GenerateNcVoterTable(250, 5, 3);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.epsilon = 0.1;
  options.num_shards = 2;
  options.num_threads = 1;

  options.shard_transport = ShardTransport::kInProcess;
  DiscoveryResult inproc = DiscoverOds(enc, options);
  ASSERT_TRUE(inproc.shard_status.ok());

  options.shard_transport = ShardTransport::kProcess;
  options.shard_runner_path = runner;
  DiscoveryResult process = DiscoverOds(enc, options);
  ASSERT_TRUE(process.shard_status.ok()) << process.shard_status.ToString();

  // Identical output, heavier wire: the process runners additionally
  // received a config block and the full rank-encoded table.
  EXPECT_EQ(OutputFingerprint(process), OutputFingerprint(inproc));
  EXPECT_GT(process.stats.shard_bytes_wire, inproc.stats.shard_bytes_wire);
  // Shard-local derivation schedules are transport-independent.
  EXPECT_EQ(process.stats.partitions_computed,
            inproc.stats.partitions_computed);
}

TEST(ShardProcessE2eTest, MissingRunnerBinaryIsTypedNotACrash) {
  Table t = GenerateNcVoterTable(60, 3, 5);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.num_shards = 2;
  options.shard_transport = ShardTransport::kProcess;
  options.shard_runner_path = "/nonexistent/aod_shard_runner";
  options.shard_io_timeout_seconds = 1.0;
  // Strict mode: with supervision on, a missing binary degrades to
  // in-process execution and the run *completes* — that contract is
  // pinned by MissingRunnerBinaryFallsBackInProcess below.
  options.shard_max_retries = 0;
  DiscoveryResult result = DiscoverOds(enc, options);
  ASSERT_FALSE(result.shard_status.ok());
  EXPECT_TRUE(result.dependencies.empty());
}

TEST(ShardProcessE2eTest, RunnerThatNeverConnectsTimesOutTyped) {
  Table t = GenerateNcVoterTable(60, 3, 5);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.num_shards = 1;
  options.shard_transport = ShardTransport::kProcess;
  // Spawns fine, exits immediately, never speaks the protocol: the
  // accept must time out with a typed error, not hang.
  options.shard_runner_path = "/bin/true";
  options.shard_io_timeout_seconds = 0.5;
  options.shard_max_retries = 0;  // strict: pin the typed fail-stop
  DiscoveryResult result = DiscoverOds(enc, options);
  ASSERT_FALSE(result.shard_status.ok());
  EXPECT_EQ(result.shard_status.code(), StatusCode::kIoError)
      << result.shard_status.ToString();
}

// ---------------------------------------------------------------------
// Supervised execution: the same faults that abort in strict mode are
// absorbed by the retry / respawn / fallback ladder, and the completed
// run is bit-identical to the unsharded one.
// ---------------------------------------------------------------------

TEST(ShardProcessE2eTest, MissingRunnerBinaryFallsBackInProcess) {
  Table t = GenerateNcVoterTable(120, 4, 5);
  EncodedTable enc = EncodeTable(t);

  DiscoveryOptions options;
  options.epsilon = 0.1;
  options.num_threads = 2;
  DiscoveryResult unsharded = DiscoverOds(enc, options);
  ASSERT_TRUE(unsharded.shard_status.ok());

  options.num_shards = 2;
  options.shard_transport = ShardTransport::kProcess;
  options.shard_runner_path = "/nonexistent/aod_shard_runner";
  options.shard_io_timeout_seconds = 1.0;
  options.shard_max_retries = 1;
  options.shard_retry_backoff_ms = 1.0;
  DiscoveryResult result = DiscoverOds(enc, options);
  ASSERT_TRUE(result.shard_status.ok()) << result.shard_status.ToString();
  EXPECT_EQ(OutputFingerprint(result), OutputFingerprint(unsharded));
  // Every shard exhausted its retries and degraded in-process.
  EXPECT_EQ(result.stats.shard_fallback_shards, 2);
  EXPECT_GT(result.stats.shard_retries, 0);
}

TEST(ShardProcessE2eTest, RunnerKilledMidLevelIsRespawnedBitExactly) {
  const std::string runner = RunnerBinaryPath();
  if (runner.empty()) {
    GTEST_SKIP() << "shard_runner_main not found next to the test binary";
  }
  Table t = GenerateNcVoterTable(200, 5, 9);
  EncodedTable enc = EncodeTable(t);

  DiscoveryOptions options;
  options.epsilon = 0.1;
  options.collect_removal_sets = true;
  options.num_threads = 2;
  DiscoveryResult unsharded = DiscoverOds(enc, options);
  ASSERT_TRUE(unsharded.shard_status.ok());
  const std::string expected = OutputFingerprint(unsharded);

  options.num_shards = 2;
  options.shard_transport = ShardTransport::kProcess;
  options.shard_runner_path = runner;
  options.shard_io_timeout_seconds = 5.0;
  options.shard_retry_backoff_ms = 1.0;

  // Exactly one runner in the fleet _exit(57)s mid-protocol (the flag
  // file makes the crash once-per-fleet); its respawned successor must
  // finish the level and the merged output must not change.
  const std::string flag =
      ::testing::TempDir() + "/aod_crash_once_" +
      std::to_string(static_cast<long long>(::getpid()));
  std::remove(flag.c_str());
  ::setenv("AOD_TEST_RUNNER_CRASH_BEFORE_FRAME", "4", 1);
  ::setenv("AOD_TEST_RUNNER_CRASH_ONCE_FLAG", flag.c_str(), 1);
  DiscoveryResult result = DiscoverOds(enc, options);
  ::unsetenv("AOD_TEST_RUNNER_CRASH_BEFORE_FRAME");
  ::unsetenv("AOD_TEST_RUNNER_CRASH_ONCE_FLAG");
  std::remove(flag.c_str());

  ASSERT_TRUE(result.shard_status.ok()) << result.shard_status.ToString();
  EXPECT_EQ(OutputFingerprint(result), expected);
  EXPECT_GT(result.stats.shard_retries, 0);
  EXPECT_GT(result.stats.shard_respawns, 0);
  EXPECT_EQ(result.stats.shard_fallback_shards, 0);
}

TEST(ShardProcessE2eTest, PersistentlyCrashingRunnerFallsBackInProcess) {
  const std::string runner = RunnerBinaryPath();
  if (runner.empty()) {
    GTEST_SKIP() << "shard_runner_main not found next to the test binary";
  }
  Table t = GenerateNcVoterTable(120, 4, 5);
  EncodedTable enc = EncodeTable(t);

  DiscoveryOptions options;
  options.epsilon = 0.1;
  options.num_threads = 2;
  DiscoveryResult unsharded = DiscoverOds(enc, options);
  ASSERT_TRUE(unsharded.shard_status.ok());

  options.num_shards = 2;
  options.shard_transport = ShardTransport::kProcess;
  options.shard_runner_path = runner;
  options.shard_io_timeout_seconds = 5.0;
  options.shard_max_retries = 1;
  options.shard_retry_backoff_ms = 1.0;

  // No once-flag: every spawned runner crashes before its first served
  // frame, so retries can never succeed and both shards must degrade.
  ::setenv("AOD_TEST_RUNNER_CRASH_BEFORE_FRAME", "1", 1);
  DiscoveryResult result = DiscoverOds(enc, options);
  ::unsetenv("AOD_TEST_RUNNER_CRASH_BEFORE_FRAME");

  ASSERT_TRUE(result.shard_status.ok()) << result.shard_status.ToString();
  EXPECT_EQ(OutputFingerprint(result), OutputFingerprint(unsharded));
  EXPECT_EQ(result.stats.shard_fallback_shards, 2);
  EXPECT_GT(result.stats.shard_retries, 0);
}

TEST(ShardProcessE2eTest, IoTimeoutIsClampedToTheRunDeadline) {
  Table t = GenerateNcVoterTable(60, 3, 5);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.num_shards = 1;
  options.shard_transport = ShardTransport::kProcess;
  options.shard_runner_path = "/bin/true";  // never speaks the protocol
  // A generous I/O timeout clamped by a 1-second run budget: each
  // accept/receive wait must shrink to the remaining budget instead of
  // parking for 30 s per attempt.
  options.shard_io_timeout_seconds = 30.0;
  options.time_budget_seconds = 1.0;
  options.shard_max_retries = 1;
  options.shard_retry_backoff_ms = 1.0;
  const auto start = std::chrono::steady_clock::now();
  DiscoveryResult result = DiscoverOds(enc, options);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 10.0) << "I/O waits were not clamped to the budget";
  // A coherent terminal state: either the budget ran out before the
  // in-process fallback could take over (a typed error), or the one
  // shard degraded to in-process execution.
  EXPECT_TRUE(!result.shard_status.ok() ||
              result.stats.shard_fallback_shards == 1)
      << result.shard_status.ToString();
}

}  // namespace
}  // namespace aod
