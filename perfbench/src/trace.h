// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public functions (no instrumentation inside src/). A span's
// layer is its name up to the first '.', so "partition.product" belongs
// to the partition layer. Forked op children record into their own
// Tracer and ship the spans back through the result pipe; the parent
// adopts them, remapping their ids so parent links stay intact.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util.h"

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int64_t id = 0;
  /// Id of the enclosing span, 0 for a root.
  int64_t parent = 0;
  /// The benchmark op (or serve job) the span belongs to, -1 for none.
  int64_t op = -1;
  int tid = 0;
  std::vector<std::pair<std::string, double>> args;
};

/// Per-layer aggregate: summed self time (duration minus the time its
/// child spans cover) and span count.
struct LayerTime {
  double self_s = 0.0;
  int64_t spans = 0;
};

class Tracer {
 public:
  /// A disabled tracer records nothing and returns id 0. `first_id` lets
  /// child processes allocate ids that cannot collide with the parent's.
  explicit Tracer(bool enabled, int64_t first_id = 1)
      : enabled_(enabled), next_id_(first_id) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  int64_t Begin(const std::string& name, int64_t parent = 0, int64_t op = -1,
                int tid = 0);
  void End(int64_t id);
  /// Records a finished span with explicit times.
  int64_t Add(const std::string& name, double start_s, double end_s,
              int64_t parent, int64_t op, int tid);
  void Arg(int64_t id, const std::string& key, double value);

  /// Serializes / adopts spans across the child pipe.
  void Encode(ByteWriter* w) const;
  /// Reads spans written by Encode and appends them.
  bool Adopt(ByteReader* r);

  std::vector<Span> spans() const;
  std::map<std::string, LayerTime> SelfTimeByLayer() const;
  /// Writes Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).
  bool WriteChromeJson(const std::string& path) const;

 private:
  Span* Find(int64_t id);

  const bool enabled_;
  mutable std::mutex mutex_;
  int64_t next_id_;
  std::vector<Span> spans_;
};

/// Begin/End pair for a lexical scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t parent = 0,
             int64_t op = -1, int tid = 0)
      : tracer_(tracer), id_(tracer->Begin(name, parent, op, tid)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
