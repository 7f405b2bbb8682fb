#include "shard/supervisor.h"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "exec/thread_pool.h"
#include "shard/coordinator.h"

extern char** environ;

namespace aod {
namespace shard {
namespace {

/// SplitMix64 finalizer — the repo's standard cheap mixer. Backoff
/// jitter must be deterministic (no wall-clock seed) so a fault
/// schedule replays identically run to run.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr double kInfinity = std::numeric_limits<double>::infinity();
/// Backoff ceiling: a respawn is never parked longer than this.
constexpr double kMaxBackoffSeconds = 2.0;
/// Floor on clamped I/O waits — a receive still gets a beat to drain a
/// frame that already arrived even when the run deadline is on top of us.
constexpr double kMinIoSeconds = 0.05;

}  // namespace

ShardSupervisor::ShardSupervisor(int shard_id,
                                 const ShardBootstrap* bootstrap,
                                 const ShardTransportOptions* transport,
                                 const ShardSupervisionOptions& supervision,
                                 exec::ThreadPool* pool)
    : shard_id_(shard_id),
      bootstrap_(bootstrap),
      transport_(transport),
      supervision_(supervision),
      pool_(pool) {
  AOD_CHECK(bootstrap != nullptr && transport != nullptr);
}

ShardSupervisor::~ShardSupervisor() {
  // Owners run the Finish sequence first; this is the last-resort path
  // (e.g. a failed Create) — kill and reap whatever is still alive so a
  // supervisor never leaks a child.
  Teardown(&current_);
}

double ShardSupervisor::DeadlineRemaining() const {
  if (supervision_.run_deadline ==
      std::chrono::steady_clock::time_point::min()) {
    return kInfinity;
  }
  return std::chrono::duration<double>(supervision_.run_deadline -
                                       std::chrono::steady_clock::now())
      .count();
}

bool ShardSupervisor::DeadlineExpired() const {
  return DeadlineRemaining() <= 0.0;
}

double ShardSupervisor::BoundedIoTimeout() const {
  const double remaining = DeadlineRemaining();
  if (remaining == kInfinity) return transport_->io_timeout_seconds;
  return std::min(transport_->io_timeout_seconds,
                  std::max(kMinIoSeconds, remaining));
}

std::unique_ptr<ShardChannel> ShardSupervisor::Decorate(
    std::unique_ptr<ShardChannel> ch) {
  if (transport_->channel_decorator) {
    return transport_->channel_decorator(std::move(ch));
  }
  return ch;
}

void ShardSupervisor::AddFrameBytes(FrameType type, int64_t bytes) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  frame_bytes_[static_cast<size_t>(type)] += bytes;
}

Status ShardSupervisor::BuildAttempt(bool force_inproc,
                                     std::unique_ptr<Attempt>* out) {
  auto attempt = std::make_unique<Attempt>();
  attempt->id = ++attempt_seq_;
  attempt->fallback = force_inproc;
  *out = std::move(attempt);
  Attempt* a = out->get();

  ChannelOptions copts;
  copts.max_frame_bytes = transport_->max_frame_bytes;
  copts.receive_timeout_seconds = BoundedIoTimeout();

  ShardRunnerOptions ropts = bootstrap_->runner_options;
  ropts.attempt_id = a->id;

  const ShardTransport transport =
      force_inproc ? ShardTransport::kInProcess : transport_->transport;
  switch (transport) {
    case ShardTransport::kInProcess: {
      // The degraded fallback runs *outside* the configured transport's
      // failure domain, so its channels are deliberately undecorated —
      // the decorator models that transport's faults (ARCHITECTURE.md,
      // "Failure domains and supervision").
      if (force_inproc) {
        a->to = std::make_unique<InProcessChannel>(copts);
        a->from = std::make_unique<InProcessChannel>(copts);
      } else {
        a->to = Decorate(std::make_unique<InProcessChannel>(copts));
        a->from = Decorate(std::make_unique<InProcessChannel>(copts));
      }
      a->to_shard = a->to.get();
      a->from_shard = a->from.get();
      a->runner = std::make_unique<ShardRunner>(shard_id_, bootstrap_->table,
                                                ropts, a->to_shard,
                                                a->from_shard, pool_);
      break;
    }
    case ShardTransport::kSocket: {
      AOD_ASSIGN_OR_RETURN(LoopbackChannelPair pair,
                           ConnectLoopbackPair(BoundedIoTimeout(), copts));
      a->to = Decorate(std::move(pair.near));
      a->to_shard = a->to.get();
      a->from_shard = a->to.get();
      a->runner_side = std::move(pair.far);
      a->runner = std::make_unique<ShardRunner>(shard_id_, bootstrap_->table,
                                                ropts, a->runner_side.get(),
                                                a->runner_side.get(), pool_);
      break;
    }
    case ShardTransport::kProcess: {
      std::string path = transport_->runner_path;
      if (path.empty()) {
        const char* env = std::getenv("AOD_SHARD_RUNNER");
        if (env != nullptr) path = env;
      }
      if (path.empty()) {
        return Status::InvalidArgument(
            "process transport needs ShardTransportOptions::runner_path or "
            "$AOD_SHARD_RUNNER");
      }
      // Every attempt binds its own ephemeral listener: a respawn must
      // never adopt a torn-down attempt's late connection out of a
      // shared accept queue.
      AOD_ASSIGN_OR_RETURN(std::unique_ptr<SocketListener> listener,
                           SocketListener::Bind());
      const std::string endpoint =
          "--connect=127.0.0.1:" + std::to_string(listener->port());
      const std::string timeout =
          "--timeout=" + std::to_string(BoundedIoTimeout());
      char* argv[] = {const_cast<char*>(path.c_str()),
                      const_cast<char*>(endpoint.c_str()),
                      const_cast<char*>(timeout.c_str()), nullptr};
      pid_t pid = -1;
      const int rc =
          ::posix_spawn(&pid, path.c_str(), nullptr, nullptr, argv, environ);
      if (rc != 0) {
        return Status::IoError("cannot spawn shard runner '" + path +
                               "': " + std::strerror(rc));
      }
      a->pid = pid;
      AOD_ASSIGN_OR_RETURN(int accepted_fd,
                           listener->AcceptFd(BoundedIoTimeout()));
      a->to = Decorate(SocketShardChannel::Adopt(accepted_fd, copts));
      a->to_shard = a->to.get();
      a->from_shard = a->to.get();

      // Bootstrap frames the runner process consumes before its serve
      // loop: the validation config (stamped with this attempt's id),
      // then the rank-encoded table — both re-sent verbatim from the
      // coordinator's encode-once bootstrap on every respawn.
      WireRunnerConfig config;
      config.shard_id = static_cast<uint32_t>(shard_id_);
      config.attempt_id = a->id;
      config.validator = static_cast<uint8_t>(ropts.validator);
      config.epsilon = ropts.epsilon;
      config.collect_removal_sets = ropts.collect_removal_sets;
      config.enable_sampling_filter = ropts.enable_sampling_filter;
      config.sampler_sample_size = ropts.sampler_config.sample_size;
      config.sampler_reject_margin = ropts.sampler_config.reject_margin;
      config.sampler_seed = ropts.sampler_config.seed;
      config.partition_memory_budget_bytes =
          ropts.partition_memory_budget_bytes;
      config.kinds = ropts.kinds.bits();
      config.afd_error = ropts.afd_error;
      // N children each as wide as the coordinator would oversubscribe
      // the machine N-fold; give each its slice of the pool instead.
      config.num_threads = static_cast<uint32_t>(
          std::max(1, bootstrap_->pool_workers / bootstrap_->num_shards));
      AOD_RETURN_NOT_OK(a->to_shard->Send(EncodeConfigBlock(config)));
      AOD_RETURN_NOT_OK(a->to_shard->Send(bootstrap_->table_frame));
      AddFrameBytes(FrameType::kTableBlock,
                    static_cast<int64_t>(bootstrap_->table_frame.size()));
      break;
    }
  }
  a->receiver = std::make_unique<LogicalFrameReceiver>(a->from_shard);
  if (a->id > 1 && !a->fallback) ++respawns_;
  return Status::OK();
}

Status ShardSupervisor::SeedAttempt(Attempt* attempt,
                                    const std::function<bool()>& cancel) {
  if (bootstrap_->base_frames == 0) return Status::OK();
  AOD_RETURN_NOT_OK(attempt->to_shard->Send(bootstrap_->base_shipment));
  // The envelope counts as its inner frames — the unit the footer
  // cross-check compares against frames_served.
  attempt->frames_sent += bootstrap_->base_frames;
  AddFrameBytes(FrameType::kPartitionBlock, bootstrap_->base_frame_bytes);
  if (attempt->runner != nullptr) {
    for (int i = 0; i < bootstrap_->base_frames; ++i) {
      AOD_RETURN_NOT_OK(attempt->runner->ServeOne(cancel));
    }
  }
  return Status::OK();
}

Status ShardSupervisor::EstablishCurrent(bool force_inproc,
                                         const std::function<bool()>& cancel) {
  std::unique_ptr<Attempt> attempt;
  const Status built = BuildAttempt(force_inproc, &attempt);
  // Installed even on failure: a half-built attempt may hold a spawned
  // pid that strict-mode Finish must still reap (supervised retries
  // tear it down instead).
  {
    std::lock_guard<std::mutex> lock(attempts_mutex_);
    current_ = std::move(attempt);
  }
  AOD_RETURN_NOT_OK(built);
  return SeedAttempt(current_.get(), cancel);
}

Status ShardSupervisor::ExecuteLevelOnce(
    Attempt* attempt, const std::vector<WireCandidate>& batch,
    const std::function<bool()>& cancel, std::vector<WireOutcome>* out) {
  std::vector<uint8_t> candidates = EncodeCandidateBatch(batch);
  const int64_t candidate_bytes = static_cast<int64_t>(candidates.size());
  AOD_RETURN_NOT_OK(attempt->to_shard->Send(std::move(candidates)));
  ++attempt->frames_sent;
  AddFrameBytes(FrameType::kCandidateBatch, candidate_bytes);
  if (attempt->runner != nullptr) {
    AOD_RETURN_NOT_OK(attempt->runner->ServeOne(cancel));
  }
  // Chunked reply: a well-formed reply is at most |batch|+1 chunks
  // (every chunk but the final carries at least one outcome), so a
  // babbling runner is a typed protocol error, not a loop.
  const size_t max_chunks = batch.size() + 1;
  size_t chunks = 0;
  int64_t reply_bytes = 0;
  for (;;) {
    if (++chunks > max_chunks) {
      return Status::ParseError("shard result stream never finalized");
    }
    AOD_ASSIGN_OR_RETURN(std::vector<uint8_t> raw,
                         attempt->receiver->Receive());
    AOD_ASSIGN_OR_RETURN(DecodedFrame frame, DecodeFrame(raw));
    AOD_ASSIGN_OR_RETURN(WireResultChunk chunk, DecodeResultBatch(frame));
    reply_bytes += static_cast<int64_t>(raw.size());
    for (WireOutcome& o : chunk.outcomes) out->push_back(std::move(o));
    if (chunk.final_chunk) break;
  }
  AddFrameBytes(FrameType::kResultBatch, reply_bytes);
  return Status::OK();
}

void ShardSupervisor::Backoff(int attempt_try,
                              const std::function<bool()>& cancel) {
  const double base = supervision_.retry_backoff_ms / 1000.0;
  if (base <= 0.0) return;
  // Deterministic jitter in [0.5, 1.0): a function of (shard, attempt)
  // only, so two shards backing off together still decollide while the
  // schedule stays replayable.
  const uint64_t mixed =
      Mix64((static_cast<uint64_t>(shard_id_) << 32) ^
            static_cast<uint64_t>(attempt_try));
  const double jitter =
      0.5 + 0.5 * (static_cast<double>(mixed >> 11) / 9007199254740992.0);
  double sleep_seconds =
      base * static_cast<double>(1 << std::min(attempt_try - 1, 6)) * jitter;
  sleep_seconds = std::min(sleep_seconds, kMaxBackoffSeconds);
  const double remaining = DeadlineRemaining();
  if (remaining != kInfinity) {
    sleep_seconds = std::min(sleep_seconds, std::max(0.0, remaining));
  }
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<
                         std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(sleep_seconds));
  // Sliced so a cancellation ends the park promptly.
  while (std::chrono::steady_clock::now() < until) {
    if (cancel && cancel()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void ShardSupervisor::Teardown(std::unique_ptr<Attempt>* slot) {
  std::unique_ptr<Attempt> attempt;
  {
    std::lock_guard<std::mutex> lock(attempts_mutex_);
    attempt = std::move(*slot);
  }
  DestroyAttempt(std::move(attempt));
}

void ShardSupervisor::DestroyAttempt(std::unique_ptr<Attempt> attempt) {
  if (attempt == nullptr) return;
  if (attempt->to_shard != nullptr) {
    attempt->to_shard->Close();
    if (attempt->from_shard != attempt->to_shard) {
      attempt->from_shard->Close();
    }
  }
  if (attempt->runner_side != nullptr) attempt->runner_side->Close();
  if (attempt->pid >= 0) {
    // A torn-down child is not asked nicely: it may be wedged mid-frame,
    // and its replacement is already on the way. SIGKILL converges, so
    // the blocking reap cannot hang.
    ::kill(attempt->pid, SIGKILL);
    int wstatus = 0;
    ::waitpid(attempt->pid, &wstatus, 0);
    attempt->pid = -1;
  }
  int64_t bytes = 0;
  if (attempt->to_shard != nullptr) bytes += attempt->to_shard->bytes_sent();
  if (attempt->from_shard != nullptr) {
    bytes += attempt->from_shard->bytes_received();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    retired_bytes_ += bytes;
  }
}

Status ShardSupervisor::Start() {
  Status st = Status::OK();
  for (int attempt_try = 0;; ++attempt_try) {
    if (attempt_try > 0) {
      ++retries_;
      Backoff(attempt_try, {});
      // Backoff is clamped to the remaining run deadline, so on a tight
      // budget the park wakes *at* the deadline; another establish
      // attempt would still cost its bounded I/O floor. Surface the
      // fault that triggered the retry instead of overshooting.
      if (DeadlineExpired()) return st;
    }
    st = EstablishCurrent(/*force_inproc=*/false, {});
    if (st.ok()) return st;
    if (strict()) return st;  // partial attempt stays for the Finish reap
    Teardown(&current_);
    if (DeadlineExpired()) return st;
    if (attempt_try >= supervision_.max_retries) {
      if (transport_->transport != ShardTransport::kInProcess) {
        const Status fallback = EstablishCurrent(/*force_inproc=*/true, {});
        if (fallback.ok()) {
          fell_back_ = true;
          return fallback;
        }
        Teardown(&current_);
        return fallback;
      }
      return st;
    }
  }
}

Status ShardSupervisor::ExecuteLevel(const std::vector<WireCandidate>& batch,
                                     const std::function<bool()>& cancel,
                                     std::vector<WireOutcome>* out) {
  Status st = Status::OK();
  for (int attempt_try = 0;; ++attempt_try) {
    if (attempt_try > 0) {
      ++retries_;
      Backoff(attempt_try, cancel);
      // Same rule as Start: a backoff that woke at the clamped deadline
      // must not buy one more attempt (each attempt is bounded below by
      // the I/O-timeout floor, so overshoot compounds per retry).
      if (DeadlineExpired()) return st;
    }
    st = Status::OK();
    {
      std::lock_guard<std::mutex> lock(attempts_mutex_);
      if (current_ == nullptr) st = Status::Internal("no live shard attempt");
    }
    if (!st.ok()) {
      // A previous level tore the attempt down (or Start never
      // succeeded — unreachable through the coordinator, which aborts
      // Create on a failed Start): re-establish before executing.
      st = EstablishCurrent(fell_back_, cancel);
    }
    if (st.ok()) {
      std::vector<WireOutcome> buffered;
      st = ExecuteLevelOnce(current_.get(), batch, cancel, &buffered);
      if (st.ok()) {
        *out = std::move(buffered);
        return st;
      }
    }
    if (strict()) return st;  // PR 5 contract: first fault surfaces as-is
    Teardown(&current_);
    if (cancel && cancel()) return st;
    if (DeadlineExpired()) return st;
    if (attempt_try >= supervision_.max_retries) {
      // Retry budget exhausted on the configured transport — degrade to
      // executing this shard's slice in-process rather than aborting
      // the run. One successful fallback pins the shard in-process for
      // the rest of the run (the transport already proved persistent).
      if (transport_->transport != ShardTransport::kInProcess &&
          !fell_back_) {
        Status fallback = EstablishCurrent(/*force_inproc=*/true, cancel);
        if (fallback.ok()) {
          std::vector<WireOutcome> buffered;
          fallback =
              ExecuteLevelOnce(current_.get(), batch, cancel, &buffered);
          if (fallback.ok()) {
            fell_back_ = true;
            *out = std::move(buffered);
            return fallback;
          }
        }
        Teardown(&current_);
        return fallback;
      }
      return st;
    }
  }
}

Status ShardSupervisor::SendShutdown() {
  Attempt* a = current_.get();
  if (a == nullptr || a->to_shard == nullptr) {
    // Nothing live to hand a footer back — strict half-init parity:
    // the old coordinator skipped channel-less links too.
    footer_missing_ = true;
    return Status::OK();
  }
  const Status st = a->to_shard->Send(EncodeShutdown());
  if (st.ok()) {
    ++a->frames_sent;
    return st;
  }
  if (strict()) return st;
  footer_missing_ = true;  // the footer cannot arrive; tolerated
  return Status::OK();
}

Status ShardSupervisor::PumpShutdownServe() {
  Attempt* a = current_.get();
  if (a == nullptr || a->runner == nullptr || footer_missing_) {
    return Status::OK();
  }
  const Status st = a->runner->ServeOne();
  if (st.ok() || strict()) return st;
  footer_missing_ = true;
  return Status::OK();
}

Status ShardSupervisor::CollectFooter() {
  Attempt* a = current_.get();
  if (a == nullptr || a->from_shard == nullptr || footer_missing_) {
    footer_missing_ = true;
    return Status::OK();
  }
  // A half-initialized attempt (failed bootstrap in strict mode) has
  // its channels but never got a receiver; give it one so the drain
  // below still unwraps envelopes.
  if (a->receiver == nullptr) {
    a->receiver = std::make_unique<LogicalFrameReceiver>(a->from_shard);
  }
  // A mid-level abort can leave result frames queued ahead of the
  // footer — a whole level's worth of reply chunks; drain non-footer
  // logical frames (bounded) instead of misdecoding the first frame
  // seen as the footer.
  Result<ShardStatsFooter> footer =
      Status::Internal("stats footer never arrived");
  for (int drained = 0; drained < 4096; ++drained) {
    Result<std::vector<uint8_t>> raw = a->receiver->Receive();
    if (!raw.ok()) {
      footer = raw.status();
      break;
    }
    Result<DecodedFrame> frame = DecodeFrame(*raw);
    if (!frame.ok()) {
      footer = frame.status();
      break;
    }
    if (frame->type != FrameType::kStatsFooter) continue;  // stale reply
    footer = DecodeStatsFooter(*frame);
    break;
  }
  Status st = Status::OK();
  if (!footer.ok()) {
    st = footer.status();
  } else if (footer->attempt_id != a->id) {
    // A footer from a superseded attempt (left in a kernel buffer by an
    // abort) must not masquerade as the live attempt's stats.
    st = Status::Internal("stats footer from a stale shard attempt");
  } else if (footer->frames_served != a->frames_sent) {
    st = Status::Internal(
        "stats footer frame count mismatch: shard served " +
        std::to_string(footer->frames_served) + " of " +
        std::to_string(a->frames_sent) + " sent");
  } else {
    footer_ = *footer;
    footer_valid_ = true;
    return st;
  }
  if (strict()) return st;
  // The shard's level work is already merged; a lost footer costs
  // stats, not correctness — count it instead of failing Finish.
  footer_missing_ = true;
  return Status::OK();
}

void ShardSupervisor::CloseChannels() {
  std::lock_guard<std::mutex> lock(attempts_mutex_);
  Attempt* a = current_.get();
  if (a == nullptr || a->to_shard == nullptr) return;
  a->to_shard->Close();
  if (a->from_shard != a->to_shard) a->from_shard->Close();
}

void ShardSupervisor::ReleaseProcesses(std::vector<ShardReapJob>* jobs) {
  std::lock_guard<std::mutex> lock(attempts_mutex_);
  Attempt* a = current_.get();
  if (a == nullptr || a->pid < 0) return;
  jobs->push_back(ShardReapJob{a->pid});
  a->pid = -1;
}

int64_t ShardSupervisor::bytes_shipped() const {
  int64_t total = 0;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    total = retired_bytes_;
  }
  std::lock_guard<std::mutex> lock(attempts_mutex_);
  const Attempt* a = current_.get();
  if (a == nullptr) return total;
  if (a->to_shard != nullptr) total += a->to_shard->bytes_sent();
  if (a->from_shard != nullptr) total += a->from_shard->bytes_received();
  return total;
}

int64_t ShardSupervisor::frame_bytes(FrameType type) const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return frame_bytes_[static_cast<size_t>(type)];
}

}  // namespace shard
}  // namespace aod
