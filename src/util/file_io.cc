#include "util/file_io.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace sprout {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path,
                const std::function<void(std::ostream&)>& write) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  write(out);
  // Flush before checking: a full disk surfacing in the destructor's
  // implicit flush would otherwise exit 0 with a truncated file, and the
  // orchestrator gating on exit codes would feed it to the merge.
  out.flush();
  if (!out) throw std::runtime_error("write to " + path + " failed");
}

}  // namespace sprout
