// In-memory spans recorded around the benchmark's calls into the program.
// Nothing is written while a workload runs; the collected spans are
// written once, as a Chrome trace, when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  int id = 0;
  int parent = -1;  // -1: a root span
  int pid = 0;      // the process that recorded it
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::string name;
};

class SpanLog {
 public:
  // Opens a span; returns its id for end() and for children's `parent`.
  int begin(std::string name, int parent = -1);
  void end(int id);

  // Appends spans recorded in another process under `parent`.  Their ids
  // are renumbered past this log's, parents included, so two processes'
  // ids never clash.
  void absorb(std::vector<Span> spans, int parent);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Chrome trace-event JSON ("X" complete events, microseconds), with
  // `other_data` (a JSON object) as its "otherData".
  void write_chrome_trace(std::ostream& os,
                          const std::string& other_data) const;

 private:
  std::vector<Span> spans_;
};

// Closes its span on scope exit, exceptions included.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, int parent = -1)
      : log_(log), id_(log.begin(std::move(name), parent)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

}  // namespace perfbench
