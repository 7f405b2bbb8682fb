#include "isolate.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>

#include "util.h"

namespace perfbench {
namespace {

bool WriteAll(int fd, const char* p, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

std::string DescribeStatus(int status) {
  char buf[64];
  if (WIFEXITED(status)) {
    std::snprintf(buf, sizeof buf, "exit %d", WEXITSTATUS(status));
  } else if (WIFSIGNALED(status)) {
    std::snprintf(buf, sizeof buf, "signal %d", WTERMSIG(status));
  } else {
    std::snprintf(buf, sizeof buf, "status 0x%x", status);
  }
  return buf;
}

/// utime + stime of process `pid` in clock ticks, or -1.
int64_t CpuTicks(pid_t pid) {
  char path[64];
  std::snprintf(path, sizeof path, "/proc/%d/stat", static_cast<int>(pid));
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) return -1;
  char buf[1024];
  const size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  // Fields after the parenthesized command name: state is field 3,
  // utime field 14, stime field 15.
  const char* p = std::strrchr(buf, ')');
  if (p == nullptr) return -1;
  long long utime = 0, stime = 0;
  if (std::sscanf(p + 2, "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %lld %lld",
                  &utime, &stime) != 2) {
    return -1;
  }
  return utime + stime;
}

}  // namespace

bool MessageSink::Send(const std::string& message) {
  const uint64_t n = message.size();
  std::lock_guard<std::mutex> lock(mutex_);
  return WriteAll(fd_, reinterpret_cast<const char*>(&n), sizeof n) &&
         WriteAll(fd_, message.data(), message.size());
}

ChildExit RunChild(const std::function<void(MessageSink*)>& body,
                   const std::function<void(const std::string&)>& on_message,
                   const std::function<bool()>& overdue,
                   double idle_stall_s) {
  ChildExit out;
  int fds[2];
  if (::pipe(fds) != 0) {
    out.detail = std::string("pipe: ") + std::strerror(errno);
    return out;
  }
  std::fflush(nullptr);  // the child must not re-emit buffered output
  const double start = NowS();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    out.detail = std::string("fork: ") + std::strerror(errno);
    return out;
  }
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    try {
      MessageSink sink(fds[1]);
      body(&sink);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench child: %s\n", e.what());
      code = 3;
    } catch (...) {
      code = 3;
    }
    ::close(fds[1]);
    // _exit: no atexit handlers, no stdio flush, no static destructors
    // racing the library's own threads.
    ::_exit(code);
  }

  ::close(fds[1]);
  std::string buf;
  bool eof = false;
  char chunk[1 << 16];
  int64_t last_ticks = -1;
  double last_progress = start;
  double next_sample = start;
  while (!eof) {
    if (overdue()) {
      ::kill(pid, SIGKILL);
      out.killed = true;
      out.detail = "killed at deadline";
      break;
    }
    const double now = NowS();
    if (idle_stall_s > 0 && now >= next_sample) {
      next_sample = now + 0.25;
      const int64_t ticks = CpuTicks(pid);
      if (ticks != last_ticks) {
        last_ticks = ticks;
        last_progress = now;
      } else if (now - last_progress > idle_stall_s) {
        ::kill(pid, SIGKILL);
        out.killed = true;
        out.detail = "killed after " + std::to_string(idle_stall_s) +
                     " s without CPU progress";
        break;
      }
    }
    pollfd p{fds[0], POLLIN, 0};
    const int r = ::poll(&p, 1, 20);
    if (r < 0 && errno != EINTR) break;
    if (r <= 0) continue;
    const ssize_t n = ::read(fds[0], chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) eof = true;
    buf.append(chunk, static_cast<size_t>(n));
    size_t pos = 0;
    while (buf.size() - pos >= sizeof(uint64_t)) {
      uint64_t len = 0;
      std::memcpy(&len, buf.data() + pos, sizeof len);
      if (buf.size() - pos - sizeof len < len) break;
      on_message(buf.substr(pos + sizeof len, len));
      pos += sizeof len + len;
    }
    buf.erase(0, pos);
  }
  ::close(fds[0]);

  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  out.elapsed_s = NowS() - start;
  out.max_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (!out.killed) out.detail = DescribeStatus(status);
  out.clean = !out.killed && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return out;
}

}  // namespace perfbench
