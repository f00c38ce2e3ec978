#include "isolate.h"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <vector>

#include "spans.h"

namespace perfbench {

namespace {

// Marks a complete message, so a child that dies mid-write is told apart
// from one that finished.
constexpr char kEndMark[] = "\nperfbench-end\n";

bool write_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::vector<Isolated> run_isolated_all(
    const std::vector<std::function<std::string()>>& bodies,
    double timeout_s) {
  struct Child {
    pid_t pid = -1;
    int fd = -1;  // read end of its pipe; -1 once closed
    std::string buf;
  };
  std::vector<Isolated> results(bodies.size());
  std::vector<Child> children(bodies.size());
  std::fflush(nullptr);  // no buffered output may be written twice
  for (std::size_t k = 0; k < bodies.size(); ++k) {
    int fds[2];
    if (::pipe(fds) != 0) {
      results[k].error = std::string("pipe: ") + std::strerror(errno);
      continue;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      results[k].error = std::string("fork: ") + std::strerror(errno);
      ::close(fds[0]);
      ::close(fds[1]);
      continue;
    }
    if (pid == 0) {
      for (std::size_t j = 0; j < k; ++j) {
        if (children[j].fd >= 0) ::close(children[j].fd);
      }
      ::close(fds[0]);
      int code = 0;
      try {
        code = write_all(fds[1], bodies[k]() + kEndMark) ? 0 : 3;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: child failed: %s\n", e.what());
        code = 4;
      }
      ::close(fds[1]);
      std::fflush(nullptr);
      ::_exit(code);
    }
    ::close(fds[1]);
    children[k].pid = pid;
    children[k].fd = fds[0];
  }

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  bool timed_out = false;
  char chunk[65536];
  for (;;) {
    std::vector<pollfd> open;
    std::vector<Child*> owner;
    for (Child& c : children) {
      if (c.fd >= 0) {
        open.push_back({c.fd, POLLIN, 0});
        owner.push_back(&c);
      }
    }
    if (open.empty()) break;
    const std::int64_t left_ms = (deadline - now_ns()) / 1000000;
    if (left_ms <= 0) {
      timed_out = true;
      break;
    }
    const int r = ::poll(open.data(), open.size(), static_cast<int>(left_ms));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) {
      timed_out = r == 0;
      break;
    }
    for (std::size_t i = 0; i < open.size(); ++i) {
      if (open[i].revents == 0) continue;
      Child& c = *owner[i];
      const ssize_t n = ::read(c.fd, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {  // EOF: the child closed its end
        ::close(c.fd);
        c.fd = -1;
        continue;
      }
      c.buf.append(chunk, static_cast<std::size_t>(n));
    }
  }

  const std::string mark(kEndMark);
  for (std::size_t k = 0; k < children.size(); ++k) {
    Child& c = children[k];
    if (c.pid < 0) continue;
    const bool killed = c.fd >= 0;  // still open: it ran out of time
    if (killed) {
      ::close(c.fd);
      ::kill(c.pid, SIGKILL);
    }
    int status = 0;
    while (::waitpid(c.pid, &status, 0) < 0 && errno == EINTR) {
    }
    Isolated& result = results[k];
    if (killed) {
      result.error = timed_out ? "timed out" : "lost its pipe";
    } else if (WIFSIGNALED(status)) {
      result.error = std::string("killed by signal ") +
                     std::to_string(WTERMSIG(status)) + " (" +
                     ::strsignal(WTERMSIG(status)) + ")";
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      result.error = "exit code " + std::to_string(WEXITSTATUS(status));
    } else if (c.buf.size() < mark.size() ||
               c.buf.compare(c.buf.size() - mark.size(), mark.size(), mark) !=
                   0) {
      result.error = "incomplete result message";
    } else {
      result.ok = true;
      result.output = c.buf.substr(0, c.buf.size() - mark.size());
    }
  }
  return results;
}

}  // namespace perfbench
