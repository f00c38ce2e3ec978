// Runs pieces of work in forked child processes, so that an abort, a
// crash or a hang there costs only that piece of work.
#pragma once

#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct Isolated {
  bool ok = false;     // the child exited 0 and wrote its whole message
  std::string output;  // what the body returned, when ok
  std::string error;   // why not ok
};

// Forks one child per body, all at once; each child runs its body and
// sends the returned text back through a pipe.  The parent waits at most
// `timeout_s` seconds for them all, then kills those still running.  Every
// child is reaped before this returns.  The caller must be single-threaded
// at the call.
[[nodiscard]] std::vector<Isolated> run_isolated_all(
    const std::vector<std::function<std::string()>>& bodies, double timeout_s);

}  // namespace perfbench
