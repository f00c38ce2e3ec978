// Whole-file reads and checked writes for the command-line tools and the
// orchestrator's journal reader.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

namespace sprout {

// Reads `path` whole, in binary mode.  Throws std::runtime_error
// ("cannot read PATH") when the file cannot be opened.
[[nodiscard]] std::string read_file(const std::string& path);

// Truncates `path` and fills it through `write`.  Throws
// std::runtime_error when the file cannot be opened or any write failed.
void write_file(const std::string& path,
                const std::function<void(std::ostream&)>& write);

}  // namespace sprout
