// Stall isolation: every benchmark op runs in a forked child of the
// set-up process, so a hung op (for example a deadlocked worker pool)
// costs that op only. The child streams length-prefixed messages back
// through a pipe; the parent kills the child with SIGKILL as soon as
// its `overdue` predicate fires, then reaps it. Nothing is retried.
//
// The parent must be single-threaded when it forks: the child gets a
// copy of the address space but only the forking thread, so a lock held
// by any other parent thread would stay held forever in the child.
#ifndef PERFBENCH_ISOLATE_H_
#define PERFBENCH_ISOLATE_H_

#include <functional>
#include <mutex>
#include <string>

namespace perfbench {

/// Thread-safe writer end of the child's result pipe.
class MessageSink {
 public:
  explicit MessageSink(int fd) : fd_(fd) {}
  MessageSink(const MessageSink&) = delete;
  MessageSink& operator=(const MessageSink&) = delete;
  /// Writes one framed message; false once the parent is gone.
  bool Send(const std::string& message);

 private:
  std::mutex mutex_;
  const int fd_;
};

struct ChildExit {
  /// The parent killed the child: `overdue` fired, or the child used no
  /// CPU for the idle window (every thread blocked, as in a deadlock).
  bool killed = false;
  /// Exited normally with status 0 (not killed, not crashed).
  bool clean = false;
  /// Human-readable exit description ("exit 0", "signal 9", ...).
  std::string detail;
  double elapsed_s = 0.0;
  /// Peak resident set of the child (wait4's ru_maxrss).
  double max_rss_mib = 0.0;
};

/// Forks `body` with a MessageSink on the pipe, hands each complete
/// message to `on_message` as it arrives, and polls `overdue` at least
/// every 20 ms until the child exits or is killed. With `idle_stall_s`
/// > 0 the child is also killed once its process CPU time (all threads)
/// has not advanced for that long: a discovery op always burns CPU, so
/// a child whose threads all sit blocked is stalled, and waiting out the
/// full deadline would only waste the measuring window.
ChildExit RunChild(const std::function<void(MessageSink*)>& body,
                   const std::function<void(const std::string&)>& on_message,
                   const std::function<bool()>& overdue,
                   double idle_stall_s = 0.0);

}  // namespace perfbench

#endif  // PERFBENCH_ISOLATE_H_
