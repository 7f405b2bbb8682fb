// The serve_mixed workload: an in-process DiscoveryServer on loopback
// driven by closed-loop DiscoveryClients, all inside one forked session
// child. The child streams a begin record and a done record per job;
// the parent enforces the per-job deadline and kills a session whose
// CPU time stands still. The session is the isolation unit: a stall
// fails the jobs in flight in it (they share the server's worker pool,
// so none of them can progress), and a fresh session serves the rest of
// the measuring window. Stalled jobs are never retried.
#include <malloc.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "isolate.h"
#include "serve/client.h"
#include "serve/server.h"

namespace perfbench {
namespace {

constexpr int kTables = 6;
constexpr int kClients = 3;
constexpr int kKindMixes = 3;
const char* const kKindSpecs[kKindMixes] = {"oc,ofd", "fd,afd", "oc,ofd,fd,afd"};
/// A session that has not finished its server start by then is killed.
constexpr double kSessionSetupDeadlineS = 60.0;

aod::DiscoveryOptions JobOptions(int mix) {
  return SerialOptions(aod::DependencyKindSet::Parse(kKindSpecs[mix]).value());
}

/// Which table job `j` profiles, drawn from the seed: about half of the
/// jobs go to the hot table, the rest spread over the other five. The
/// hot table itself is fixed (an ncvoter-like one), so seeds differ in
/// the job sequence, not in the overall mix.
struct JobDraw {
  static constexpr int hot = 0;
  uint64_t seed = 0;
  int Table(int64_t j) const {
    const uint64_t u = SplitMix64(seed ^ (0x9e3779b97f4a7c15ULL *
                                          static_cast<uint64_t>(j + 1)));
    if ((u & 1) == 0) return hot;
    return static_cast<int>((static_cast<uint64_t>(hot) + 1 + (u >> 1) % 5) %
                            kTables);
  }
  static int Mix(int64_t j) { return static_cast<int>(j % kKindMixes); }
};

/// A job that completed with the right output.
struct OkJob {
  double done_s = 0.0;
  double submit_s = 0.0;
  double await_s = 0.0;
  double run_s = 0.0;
  bool traced = false;
  StatMap stats;
};

}  // namespace

Report RunServe(const WorkloadSpec& spec, const Args& args, Tracer* tracer) {
  Report report;

  // Set-up part 1 (parent): six tables, three ncvoter-like and three
  // flight-like worlds, repeated kSetupReps times.
  std::vector<double> tables_s, encode_s;
  std::vector<aod::EncodedTable> tables;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    tables.clear();
    ScopedSpan span(tracer, "bench.setup");
    SetupTiming t;
    for (int i = 0; i < kTables; ++i) {
      const bool flight = i >= kTables / 2;
      const uint64_t world = (flight ? 42 : 1729) + static_cast<uint64_t>(i % 3);
      tables.push_back(
          MakeTable(flight, spec.rows, world, args.seed, tracer, span.id(), &t));
    }
    tables_s.push_back(t.generate_s + t.encode_s);
    encode_s.push_back(t.encode_s);
  }
  // Hand the freed raw tables back to the OS, so that the forked
  // children do not carry them in their resident set.
  malloc_trim(0);

  // Serial in-process reference for every (table, kind mix) pair.
  std::vector<std::vector<DepRecord>> reference(kTables * kKindMixes);
  bool have_reference = false;
  double slowest_reference_s = 0.0;
  {
    ScopedSpan span(tracer, "bench.reference");
    const double start = NowS();
    const ChildExit ce = RunChild(
        [&](MessageSink* sink) {
          ByteWriter w;
          for (int i = 0; i < kTables; ++i) {
            for (int k = 0; k < kKindMixes; ++k) {
              const double a = NowS();
              const aod::DiscoveryResult r =
                  aod::DiscoverOds(tables[static_cast<size_t>(i)], JobOptions(k));
              w.F64(NowS() - a);
              EncodeRecords(RecordsOf(r), &w);
            }
          }
          sink->Send(w.bytes());
        },
        [&](const std::string& m) {
          ByteReader r(m);
          for (auto& list : reference) {
            slowest_reference_s = std::max(slowest_reference_s, r.F64());
            list = DecodeRecords(&r);
          }
          have_reference = r.ok();
        },
        [&] { return NowS() - start > kReferenceDeadlineS; });
    std::string why;
    if (!ce.clean || !have_reference) {
      why = "reference run failed: " + ce.detail;
      have_reference = false;
    } else {
      for (int i = 0; i < kTables * kKindMixes && why.empty(); ++i) {
        Recheck(tables[static_cast<size_t>(i / kKindMixes)],
                reference[static_cast<size_t>(i)], kEpsilon, kAfdError, &why);
      }
    }
    if (!why.empty()) {
      std::printf("CHECK FAILED workload=%s seed=%llu %s\n", spec.name.c_str(),
                  static_cast<unsigned long long>(args.seed), why.c_str());
      report.correct = false;
    }
  }

  const double deadline =
      args.deadline_s > 0
          ? args.deadline_s
          : std::max(spec.min_deadline_s, spec.deadline_factor * slowest_reference_s);
  JobDraw draw;
  draw.seed = args.seed;

  std::vector<double> connect_s, latency_s, run_s, submit_s, await_s, queue_s;
  std::vector<double> traced_latency_s, untraced_latency_s;
  std::vector<StatMap> job_stats;
  int64_t cache_hits = 0, cache_misses = 0, server_rejected = 0,
          client_refused = 0;
  double peak_rss_mib = 0.0;
  // Serving time: per session, from load start to its last timed job.
  // Throughput and latencies describe the server while no job of its
  // session is stalled; the stalls themselves count as failed jobs.
  double load_end = 0.0, serving_s = 0.0;
  int64_t next_job = 0, stall_affected = 0;

  for (int session = 0;; ++session) {
    const bool first = session == 0;
    const double fork_s = NowS();
    bool started = false;
    double session_begin = 0.0;
    // Start of the earliest job in this session that stalled, crashed or
    // lost its reply: from then on the worker pool may be partly
    // deadlocked, so later completions are not timed.
    double stall_start = std::numeric_limits<double>::infinity();
    std::vector<OkJob> session_ok;
    // Start time of each job in flight, by job index.
    std::map<int64_t, double> inflight;
    std::array<int64_t, 3> session_server = {0, 0, 0};
    const ChildExit ce = RunChild(
        [&](MessageSink* sink) {
          aod::serve::ServerOptions so;
          so.num_threads = spec.threads;
          so.max_running_jobs = 2;
          so.table_cache_capacity = 4;
          aod::serve::ClientOptions co;
          co.io_timeout_seconds = 3 * deadline + 30;
          std::unique_ptr<aod::serve::DiscoveryServer> server;
          std::vector<std::unique_ptr<aod::serve::DiscoveryClient>> clients;
          std::vector<double> setup_s;
          const int reps = first ? kSetupReps : 1;
          for (int rep = 0; rep < reps; ++rep) {
            clients.clear();
            if (server) server->Shutdown();
            const double a = NowS();
            auto s = aod::serve::DiscoveryServer::Start(so);
            if (!s.ok()) throw std::runtime_error(s.status().ToString());
            server = std::move(s).value();
            for (int c = 0; c < kClients; ++c) {
              auto cl = aod::serve::DiscoveryClient::Connect("127.0.0.1",
                                                             server->port(), co);
              if (!cl.ok()) throw std::runtime_error(cl.status().ToString());
              clients.push_back(std::move(cl).value());
            }
            setup_s.push_back(NowS() - a);
          }
          const double begin = NowS();
          const double end = first ? begin + args.seconds : load_end;
          ByteWriter head;
          head.U8('S');
          head.F64(begin);
          head.U64(setup_s.size());
          for (double v : setup_s) head.F64(v);
          sink->Send(head.bytes());

          // Cumulative server counters, re-sent after every job so a
          // session killed later still reports them.
          auto send_server_stats = [&] {
            const aod::serve::ServerStats st = server->stats();
            ByteWriter x;
            x.U8('X');
            x.I64(st.table_cache_hits);
            x.I64(st.table_cache_misses);
            x.I64(st.jobs_rejected);
            sink->Send(x.bytes());
          };
          std::atomic<int64_t> next{next_job};
          std::vector<std::thread> threads;
          for (int c = 0; c < kClients; ++c) {
            threads.emplace_back([&, c] {
              const int tid = 100 + c;
              while (true) {
                const int64_t j = next.fetch_add(1);
                if (NowS() >= end) break;
                ByteWriter b;
                b.U8('B');
                b.I64(j);
                b.F64(NowS());
                sink->Send(b.bytes());
                const int ti = draw.Table(j);
                const int mix = JobDraw::Mix(j);
                Tracer jt(tracer->enabled() && j % 2 == 1, kChildFirstId);
                const int64_t job_span = jt.Begin("serve.job", 0, j, tid);
                const double t0 = NowS();
                const int64_t s1 = jt.Begin("serve.submit", job_span, j, tid);
                auto id = clients[static_cast<size_t>(c)]->Submit(
                    tables[static_cast<size_t>(ti)], JobOptions(mix));
                jt.End(s1);
                const double t1 = NowS();
                ByteWriter d;
                d.U8('D');
                d.I64(j);
                if (!id.ok()) {
                  jt.End(job_span);
                  d.U8(1);
                  d.Str(id.status().ToString());
                  sink->Send(d.bytes());
                  continue;
                }
                const int64_t s2 = jt.Begin("serve.await", job_span, j, tid);
                auto res = clients[static_cast<size_t>(c)]->Await(*id);
                const double t2 = NowS();
                if (!res.ok()) {
                  jt.End(s2);
                  jt.End(job_span);
                  d.U8(2);
                  d.Str(res.status().ToString());
                  sink->Send(d.bytes());
                  continue;
                }
                const aod::DiscoveryResult& r = *res;
                const StatMap stats = StatsOf(r.stats);
                // The server's DiscoverOds ran inside the await window;
                // its span is placed at the window's end with the
                // returned run time.
                const int64_t od = jt.Add("od.discover", t2 - r.stats.total_seconds,
                                          t2, s2, j, tid);
                for (const auto& [k, v] : stats) jt.Arg(od, k, v);
                jt.End(s2);
                jt.End(job_span);
                d.U8(0);
                d.Str("");
                d.I64(ti);
                d.I64(mix);
                d.F64(t1 - t0);
                d.F64(t2 - t1);
                d.F64(t2);
                d.U8(r.timed_out || r.cancelled ? 1 : 0);
                EncodeStats(stats, &d);
                EncodeRecords(RecordsOf(r), &d);
                jt.Encode(&d);
                sink->Send(d.bytes());
                send_server_stats();
              }
            });
          }
          for (std::thread& t : threads) t.join();
          send_server_stats();
          clients.clear();
          server->Shutdown();
        },
        [&](const std::string& m) {
          ByteReader r(m);
          const uint8_t tag = r.U8();
          if (tag == 'S') {
            started = true;
            session_begin = r.F64();
            const uint64_t reps = r.U64();
            for (uint64_t i = 0; i < reps; ++i) {
              const double v = r.F64();
              if (first) connect_s.push_back(v);
            }
            if (first) load_end = session_begin + args.seconds;
          } else if (tag == 'B') {
            const int64_t j = r.I64();
            inflight[j] = r.F64();
            next_job = std::max(next_job, j + 1);
          } else if (tag == 'D') {
            const int64_t j = r.I64();
            const double began = inflight[j];
            inflight.erase(j);
            ++report.attempted;
            const uint8_t status = r.U8();
            const std::string error = r.Str();
            std::string reason;
            if (status != 0) {
              if (status == 1) {
                ++client_refused;
              } else {
                stall_start = std::min(stall_start, began);
              }
              reason = (status == 1 ? "refused: " : "await failed: ") + error;
            } else {
              const int64_t ti = r.I64();
              const int64_t mix = r.I64();
              const double sub = r.F64();
              const double aw = r.F64();
              const double done = r.F64();
              const bool cut = r.U8() != 0;
              StatMap stats = DecodeStats(&r);
              std::vector<DepRecord> deps = DecodeRecords(&r);
              const bool parsed = tracer->Adopt(&r) && r.ok();
              if (j == args.tamper_op) {
                if (deps.empty()) deps.emplace_back();
                deps.front().removal_size += 1;
              }
              const std::string diff =
                  have_reference
                      ? DescribeMismatch(
                            deps, reference[static_cast<size_t>(ti * kKindMixes + mix)])
                      : "";
              if (!parsed) {
                reason = "malformed job record";
              } else if (cut) {
                reason = "refused: job timed out or was cancelled";
              } else if (!diff.empty()) {
                reason = "output mismatch: " + diff;
                report.correct = false;
              } else {
                const double run = stats["total_s"];
                session_ok.push_back({done, sub, aw, run, j % 2 == 1,
                                      std::move(stats)});
              }
            }
            if (!reason.empty()) {
              ++report.failed;
              PrintOpFailure(spec.name, j, args.seed, NowS() - began, reason);
            }
          } else if (tag == 'X') {
            session_server = {r.I64(), r.I64(), r.I64()};
          }
        },
        [&] {
          const double now = NowS();
          if (!started) return now - fork_s > kSessionSetupDeadlineS;
          for (const auto& [j, start] : inflight) {
            if (now - start > deadline) return true;
          }
          return false;
        },
        kIdleStallS);
    peak_rss_mib = std::max(peak_rss_mib, ce.max_rss_mib);
    cache_hits += session_server[0];
    cache_misses += session_server[1];
    server_rejected += session_server[2];

    if (!started) {
      ++report.attempted;
      ++report.failed;
      PrintOpFailure(spec.name, next_job, args.seed, ce.elapsed_s,
                     "server session failed to start: " + ce.detail);
      break;
    }
    const double now = NowS();
    for (const auto& [j, start] : inflight) {
      ++report.attempted;
      ++report.failed;
      stall_start = std::min(stall_start, start);
      PrintOpFailure(spec.name, j, args.seed, now - start,
                     (ce.killed ? "stalled: session " : "session crashed: ") +
                         ce.detail);
    }
    double serving_end = session_begin;
    for (OkJob& job : session_ok) {
      if (job.done_s > stall_start) {
        ++stall_affected;
        continue;
      }
      serving_end = std::max(serving_end, job.done_s);
      latency_s.push_back(job.submit_s + job.await_s);
      run_s.push_back(job.run_s);
      submit_s.push_back(job.submit_s);
      await_s.push_back(job.await_s);
      queue_s.push_back(job.await_s - job.run_s);
      (job.traced ? traced_latency_s : untraced_latency_s)
          .push_back(job.submit_s + job.await_s);
      job_stats.push_back(std::move(job.stats));
    }
    serving_s += serving_end - session_begin;
    if (ce.clean || NowS() >= load_end) break;
  }

  const double ok = static_cast<double>(report.attempted - report.failed);
  std::vector<double> setup_s;
  for (size_t i = 0; i < tables_s.size(); ++i) {
    setup_s.push_back(tables_s[i] + (i < connect_s.size() ? connect_s[i] : 0.0));
  }
  std::printf("%s: %lld jobs, %lld failed, %lld ok but completed after a "
              "stall began (not timed), %zu timed, deadline %.1f s, "
              "table cache %lld hits / %lld misses\n",
              spec.name.c_str(), static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed),
              static_cast<long long>(stall_affected), latency_s.size(), deadline,
              static_cast<long long>(cache_hits),
              static_cast<long long>(cache_misses));

  report.e2e = {
      {"setup_s", Median(setup_s), "s"},
      {"discovery_s_p50", Median(run_s), "s"},
      {"job_latency_s_p50", Median(latency_s), "s"},
      {"job_latency_s_p90", Quantile(latency_s, 0.9), "s"},
      {"jobs_per_s",
       serving_s > 0 ? static_cast<double>(latency_s.size()) / serving_s : 0.0,
       "1/s"},
      {"ops_ok_ratio",
       report.attempted > 0 ? ok / static_cast<double>(report.attempted) : 0.0,
       "ratio"},
      {"peak_rss_mib", peak_rss_mib, "MiB"},
  };
  if (tracer->enabled()) {
    report.layer.push_back({"data.encode_s", Median(encode_s), "s"});
    AddStatsLayerMetrics(job_stats, &report);
    ReplayLayers(tables[static_cast<size_t>(draw.hot)],
                 aod::DependencyKindSet::All(), tracer, &report);
    const double lookups = static_cast<double>(cache_hits + cache_misses);
    report.layer.push_back({"serve.submit_s_p50", Median(submit_s), "s"});
    report.layer.push_back({"serve.await_s_p50", Median(await_s), "s"});
    report.layer.push_back({"serve.job_run_s_p50", Median(run_s), "s"});
    report.layer.push_back(
        {"serve.queue_and_transfer_s_p50", Median(queue_s), "s"});
    report.layer.push_back(
        {"serve.table_cache_hit_ratio",
         lookups > 0 ? static_cast<double>(cache_hits) / lookups : 0.0, "ratio"});
    report.layer.push_back({"serve.jobs_rejected",
                            static_cast<double>(server_rejected + client_refused),
                            "count"});
    report.layer.push_back(
        {"trace.overhead_s",
         Median(traced_latency_s) - Median(untraced_latency_s), "s"});
  }
  return report;
}

}  // namespace perfbench
