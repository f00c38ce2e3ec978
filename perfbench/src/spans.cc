#include "spans.h"

#include <unistd.h>

#include <algorithm>
#include <iomanip>

namespace perfbench {

int SpanLog::begin(std::string name, int parent) {
  Span s;
  s.id = static_cast<int>(spans_.size());
  s.parent = parent;
  s.pid = static_cast<int>(::getpid());
  s.start_ns = now_ns();
  s.end_ns = s.start_ns;
  s.name = std::move(name);
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanLog::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

void SpanLog::absorb(std::vector<Span> spans, int parent) {
  const int base = static_cast<int>(spans_.size());
  for (Span& s : spans) {
    s.id += base;
    s.parent = s.parent >= 0 ? s.parent + base : parent;
    spans_.push_back(std::move(s));
  }
}

void SpanLog::write_chrome_trace(std::ostream& os,
                                 const std::string& other_data) const {
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  os << "{\"otherData\": " << other_data << ",\n\"traceEvents\": [";
  bool first = true;
  for (const Span& s : spans_) {
    os << (first ? "\n" : ",\n") << "  {\"name\": \"" << s.name
       << "\", \"ph\": \"X\", \"pid\": " << s.pid << ", \"tid\": " << s.pid
       << std::fixed << std::setprecision(3)
       << ", \"ts\": " << static_cast<double>(s.start_ns - origin) / 1e3
       << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
       << "}}";
    first = false;
  }
  os << "\n]}\n";
}

}  // namespace perfbench
