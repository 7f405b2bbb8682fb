// perfbench: the repository benchmark.
//
//   perfbench --workload NAME|all --seed N --seconds S --trace 0|1
//                    [--scale F] [--deadline-s D]
//
// With --trace 0 it prints every end-to-end metric of the workload; with
// --trace 1 it prints the per-layer metrics, writes a Chrome trace-event
// file and reports the tracing overhead. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
// code is 0 unless an op's output mismatched the reference (1) or the
// arguments were bad (2); stalled ops are failed ops, not errors.
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload "
               "aod_ncvoter|fd_flight|serve_mixed|sharded_socket|all --seed N "
               "--seconds S --trace 0|1 [--scale F] [--deadline-s D]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v);
    } else if (flag == "--trace") {
      a.trace = std::atoi(v) != 0;
    } else if (flag == "--scale") {
      a.scale = std::atof(v);
    } else if (flag == "--deadline-s") {
      a.deadline_s = std::atof(v);
    } else if (flag == "--sleep-op") {
      a.sleep_op = std::atoll(v);
    } else if (flag == "--tamper-op") {
      a.tamper_op = std::atoll(v);
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (a.seconds <= 0 || a.scale <= 0) Usage("--seconds and --scale must be > 0");
  return a;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string Json(const std::string& s) { return "\"" + s + "\""; }

void AppendMetrics(const std::string& prefix, const std::vector<Metric>& ms,
                   std::string* out) {
  char buf[64];
  for (const Metric& m : ms) {
    if (out->size() > 1) *out += ", ";
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    *out += Json(prefix + m.name) + ": {\"value\": " + buf +
            ", \"unit\": " + Json(m.unit) + "}";
  }
}

}  // namespace

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  std::vector<WorkloadSpec> chosen;
  for (const WorkloadSpec& w : AllWorkloads(args.scale)) {
    if (args.workload == "all" || args.workload == w.name) chosen.push_back(w);
  }
  if (chosen.empty()) Usage(("unknown workload " + args.workload).c_str());

  bool correct = true;
  int64_t attempted = 0, failed = 0;
  std::string metrics = "{";
  for (const WorkloadSpec& spec : chosen) {
    std::printf("== %s seed=%llu seconds=%g trace=%d rows=%lld\n",
                spec.name.c_str(), static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0,
                static_cast<long long>(spec.rows));
    Tracer tracer(args.trace);
    Report r = spec.serve ? RunServe(spec, args, &tracer)
                          : RunBatch(spec, args, &tracer);
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    const double failed_ratio =
        r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 1.0;
    std::printf("  ops_failed_ratio %.6f (%lld of %lld ops failed)\n",
                failed_ratio, static_cast<long long>(r.failed),
                static_cast<long long>(r.attempted));
    const std::string prefix = chosen.size() > 1 ? spec.name + "." : "";
    if (!args.trace) {
      PrintTable("end-to-end metrics:", r.e2e);
      AppendMetrics(prefix, r.e2e, &metrics);
      continue;
    }
    std::sort(r.layer.begin(), r.layer.end(),
              [](const Metric& a, const Metric& b) { return a.name < b.name; });
    PrintTable("per-layer metrics:", r.layer);
    std::printf("per-layer self time (spans recorded around library calls):\n");
    for (const auto& [layer, t] : tracer.SelfTimeByLayer()) {
      std::printf("  %-12s self %10.4f s  spans %lld\n", layer.c_str(), t.self_s,
                  static_cast<long long>(t.spans));
    }
    for (const Metric& m : r.layer) {
      if (m.name == "trace.overhead_s") {
        std::printf("tracing overhead: %+.6f s per op "
                    "(median traced op minus median untraced op)\n",
                    m.value);
      }
    }
    ::mkdir(kTraceDir, 0755);
    const std::string path = std::string(kTraceDir) + "/trace_" + spec.name + "_seed" +
                             std::to_string(args.seed) + ".json";
    if (tracer.WriteChromeJson(path)) {
      std::printf("trace written to %s (open in ui.perfetto.dev or "
                  "chrome://tracing)\n",
                  path.c_str());
    } else {
      std::printf("could not write trace %s: %s\n", path.c_str(),
                  std::strerror(errno));
    }
    AppendMetrics(prefix, r.layer, &metrics);
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
