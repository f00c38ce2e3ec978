// obs_report — render and validate the observability artifacts the sweep
// pipeline emits.
//
//   obs_report metrics  metrics.jsonl        # human tables from a telemetry
//                                            # feed (sweep_orchestrate
//                                            # --metrics-out)
//   obs_report sweep    sweep.json           # runtime tables from a merged
//                                            # sweep whose cells carry
//                                            # "runtime" stamps
//   obs_report validate-metrics metrics.jsonl
//   obs_report validate-trace   trace.json
//   obs_report strip-runtime    in.json out.json
//
// `metrics` prints the slowest cells, per-worker utilization, the fault
// log, and — from the summary event's registry snapshot — cache hit rates
// and the forecasts' horizon-evolve columns.  `validate-*` are the CI schema gates: they
// parse every line/event strictly and exit non-zero on the first
// violation.  `strip-runtime` removes the `"runtime"` stamps from a merged
// sweep (or shard/journal) file so it byte-diffs against a run that never
// recorded telemetry — the obs-smoke CI job's identity check.
//
// Exit codes: 0 ok, 1 invalid input, 2 usage.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "runner/shard.h"
#include "util/file_io.h"
#include "util/table.h"

namespace {

using sprout::JsonValue;
using sprout::TableWriter;
using sprout::read_file;
using sprout::write_file;

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

void require(bool ok, const std::string& context, const std::string& what) {
  if (!ok) throw std::runtime_error(context + ": " + what);
}

// --- metrics.jsonl model -------------------------------------------------

struct CellEvent {
  std::size_t index = 0;
  int worker = 0;
  int attempt = 0;
  double wall_s = 0.0;
  std::int64_t peak_rss_bytes = 0;
};

struct MetricsFeed {
  std::string sweep_fingerprint;
  std::size_t total_cells = 0;
  std::vector<CellEvent> cells;
  std::vector<std::string> faults;  // rendered retry/poison lines
  std::size_t progress_events = 0;
  bool have_summary = false;
  JsonValue summary;  // the whole summary event (carries "registry")
  // Worker parting snapshots: the cell work (cache lookups, filter math)
  // happens in the workers, so their registries carry those tallies.
  std::vector<JsonValue> worker_registries;
};

// Parses and schema-checks a metrics.jsonl feed in one pass: rendering and
// `validate-metrics` must not diverge on what counts as well-formed.
MetricsFeed parse_metrics(const std::string& path) {
  const std::vector<std::string> lines = split_lines(read_file(path));
  require(!lines.empty(), path, "empty metrics file");

  MetricsFeed feed;
  const JsonValue header = JsonValue::parse(lines[0]);
  require(header.has("schema") &&
              header.at("schema").as_string() == "sprout-metrics-v1",
          path + ":1", "header schema is not sprout-metrics-v1");
  feed.sweep_fingerprint = header.at("sweep_fingerprint").as_string();
  feed.total_cells =
      static_cast<std::size_t>(header.at("total_cells").as_number());

  for (std::size_t n = 1; n < lines.size(); ++n) {
    const std::string context = path + ":" + std::to_string(n + 1);
    const JsonValue v = JsonValue::parse(lines[n]);
    require(v.has("event"), context, "record without an \"event\" key");
    const std::string& event = v.at("event").as_string();
    if (event == "cell") {
      CellEvent c;
      c.index = static_cast<std::size_t>(v.at("index").as_number());
      require(c.index < feed.total_cells, context, "cell index out of range");
      c.worker = static_cast<int>(v.at("worker").as_number());
      c.attempt = static_cast<int>(v.at("attempt").as_number());
      c.wall_s = v.at("wall_s").as_number();
      c.peak_rss_bytes =
          static_cast<std::int64_t>(v.at("peak_rss_bytes").as_number());
      feed.cells.push_back(c);
    } else if (event == "retry") {
      feed.faults.push_back(
          "cell " +
          std::to_string(static_cast<long long>(v.at("index").as_number())) +
          " retry (attempt " +
          std::to_string(static_cast<long long>(v.at("attempt").as_number())) +
          "): " + v.at("error").as_string());
    } else if (event == "poison") {
      feed.faults.push_back(
          "cell " +
          std::to_string(static_cast<long long>(v.at("index").as_number())) +
          " POISONED after " +
          std::to_string(
              static_cast<long long>(v.at("attempts").as_number())) +
          " attempts: " + v.at("error").as_string());
    } else if (event == "progress") {
      (void)v.at("completed").as_number();
      (void)v.at("total").as_number();
      (void)v.at("elapsed_s").as_number();
      ++feed.progress_events;
    } else if (event == "worker_summary") {
      (void)v.at("worker").as_number();
      require(v.at("registry").has("counters"), context,
              "worker_summary registry without counters");
      feed.worker_registries.push_back(v.at("registry"));
    } else if (event == "summary") {
      (void)v.at("completed").as_number();
      (void)v.at("total").as_number();
      (void)v.at("elapsed_s").as_number();
      require(v.at("registry").has("counters"), context,
              "summary registry without counters");
      feed.have_summary = true;
      feed.summary = v;
    } else {
      require(false, context, "unknown event \"" + event + "\"");
    }
  }
  return feed;
}

std::string format_bytes(std::int64_t bytes) {
  if (bytes >= 1024 * 1024) {
    return sprout::format_double(static_cast<double>(bytes) / (1024.0 * 1024.0),
                                 1) +
           " MiB";
  }
  return sprout::format_double(static_cast<double>(bytes) / 1024.0, 0) +
         " KiB";
}

void print_slowest_cells(const std::vector<CellEvent>& cells,
                         std::size_t limit) {
  std::vector<CellEvent> sorted = cells;
  std::sort(sorted.begin(), sorted.end(),
            [](const CellEvent& a, const CellEvent& b) {
              if (a.wall_s != b.wall_s) return a.wall_s > b.wall_s;
              return a.index < b.index;
            });
  if (sorted.size() > limit) sorted.resize(limit);
  std::cout << "slowest cells:\n";
  TableWriter t({"Cell", "Worker", "Attempt", "Wall s", "Peak RSS"});
  for (const CellEvent& c : sorted) {
    t.row()
        .cell(static_cast<std::int64_t>(c.index))
        .cell(static_cast<std::int64_t>(c.worker))
        .cell(static_cast<std::int64_t>(c.attempt))
        .cell(c.wall_s, 3)
        .cell(format_bytes(c.peak_rss_bytes));
  }
  t.print(std::cout);
}

void print_worker_utilization(const MetricsFeed& feed) {
  int max_worker = -1;
  for (const CellEvent& c : feed.cells) max_worker = std::max(max_worker, c.worker);
  if (max_worker < 0) return;
  std::vector<std::size_t> cells(static_cast<std::size_t>(max_worker) + 1, 0);
  std::vector<double> wall(cells.size(), 0.0);
  double total_wall = 0.0;
  for (const CellEvent& c : feed.cells) {
    ++cells[static_cast<std::size_t>(c.worker)];
    wall[static_cast<std::size_t>(c.worker)] += c.wall_s;
    total_wall += c.wall_s;
  }
  std::cout << "\nworker utilization:\n";
  TableWriter t({"Worker", "Cells", "Busy s", "Share %"});
  for (std::size_t w = 0; w < cells.size(); ++w) {
    t.row()
        .cell(static_cast<std::int64_t>(w))
        .cell(static_cast<std::int64_t>(cells[w]))
        .cell(wall[w], 3)
        .cell(total_wall > 0.0 ? 100.0 * wall[w] / total_wall : 0.0, 1);
  }
  t.print(std::cout);
}

std::int64_t registry_counter(const JsonValue& registry,
                              const std::string& name) {
  const JsonValue& counters = registry.at("counters");
  if (!counters.has(name)) return 0;
  return static_cast<std::int64_t>(counters.at(name).as_number());
}

// A counter summed over the coordinator's summary registry and every
// worker's parting snapshot — the whole process tree's tally.
std::int64_t feed_counter(const MetricsFeed& feed, const std::string& name) {
  std::int64_t total = feed.have_summary
                           ? registry_counter(feed.summary.at("registry"), name)
                           : 0;
  for (const JsonValue& r : feed.worker_registries) {
    total += registry_counter(r, name);
  }
  return total;
}

void print_registry_tables(const MetricsFeed& feed) {
  std::cout << "\ncache efficiency:\n";
  TableWriter caches({"Cache", "Hits", "Misses", "Hit %"});
  for (const char* cache :
       {"cache.traces", "cache.forecast_tables", "cache.transition_matrix"}) {
    const std::int64_t hits = feed_counter(feed, std::string(cache) + ".hits");
    const std::int64_t misses =
        feed_counter(feed, std::string(cache) + ".misses");
    const std::int64_t lookups = hits + misses;
    caches.row()
        .cell(cache)
        .cell(hits)
        .cell(misses)
        .cell(lookups > 0
                  ? 100.0 * static_cast<double>(hits) /
                        static_cast<double>(lookups)
                  : 0.0,
              1);
  }
  caches.print(std::cout);

  // The forecasts evolve their horizon steps only as far as the cautious
  // quantile reads; a full evolve would be horizon × bins columns each.
  const std::int64_t forecasts = feed_counter(feed, "forecast.single");
  const std::int64_t columns = feed_counter(feed, "forecast.evolve.columns");
  if (forecasts > 0) {
    std::cout << "\nforecast horizon evolve:\n";
    TableWriter horizon({"Forecasts", "Columns", "Columns/forecast"});
    horizon.row().cell(forecasts).cell(columns).cell(
        static_cast<double>(columns) / static_cast<double>(forecasts), 1);
    horizon.print(std::cout);
  }
}

int cmd_metrics(const std::string& path) {
  const MetricsFeed feed = parse_metrics(path);
  std::cout << "sweep " << feed.sweep_fingerprint << ": " << feed.cells.size()
            << " cell completions recorded (grid of " << feed.total_cells
            << ")\n";
  if (!feed.cells.empty()) {
    print_slowest_cells(feed.cells, 10);
    print_worker_utilization(feed);
  }
  if (!feed.faults.empty()) {
    std::cout << "\nfaults:\n";
    for (const std::string& f : feed.faults) std::cout << "  " << f << "\n";
  }
  if (feed.have_summary) {
    print_registry_tables(feed);
    std::cout << "\ncompleted " << feed.summary.at("completed").as_number()
              << "/" << feed.summary.at("total").as_number() << " in "
              << sprout::format_double(
                     feed.summary.at("elapsed_s").as_number(), 2)
              << " s\n";
  }
  return 0;
}

// --- merged-sweep runtime view ------------------------------------------

int cmd_sweep(const std::string& path) {
  const JsonValue doc = JsonValue::parse(read_file(path));
  std::vector<CellEvent> cells;
  for (const JsonValue& cell : doc.at("cells").as_array()) {
    const JsonValue& result = cell.at("result");
    if (!result.has("runtime")) continue;
    const JsonValue& rt = result.at("runtime");
    CellEvent c;
    c.index = static_cast<std::size_t>(cell.at("index").as_number());
    c.attempt = static_cast<int>(rt.at("attempt").as_number());
    c.wall_s = rt.at("wall_s").as_number();
    c.peak_rss_bytes =
        static_cast<std::int64_t>(rt.at("peak_rss_bytes").as_number());
    cells.push_back(c);
  }
  const std::size_t total = doc.at("cells").as_array().size();
  std::cout << path << ": " << cells.size() << "/" << total
            << " cells carry runtime stamps\n";
  if (cells.empty()) return 0;
  double wall = 0.0;
  std::int64_t retried = 0;
  for (const CellEvent& c : cells) {
    wall += c.wall_s;
    retried += c.attempt > 1 ? 1 : 0;
  }
  std::vector<CellEvent> sorted = cells;
  std::sort(sorted.begin(), sorted.end(),
            [](const CellEvent& a, const CellEvent& b) {
              if (a.wall_s != b.wall_s) return a.wall_s > b.wall_s;
              return a.index < b.index;
            });
  if (sorted.size() > 10) sorted.resize(10);
  std::cout << "slowest cells:\n";
  TableWriter t({"Cell", "Attempt", "Wall s", "Peak RSS"});
  for (const CellEvent& c : sorted) {
    t.row()
        .cell(static_cast<std::int64_t>(c.index))
        .cell(static_cast<std::int64_t>(c.attempt))
        .cell(c.wall_s, 3)
        .cell(format_bytes(c.peak_rss_bytes));
  }
  t.print(std::cout);
  std::cout << "total cell wall time " << sprout::format_double(wall, 2)
            << " s; " << retried << " cells needed a retry\n";
  return 0;
}

// --- validators ----------------------------------------------------------

int cmd_validate_metrics(const std::string& path) {
  const MetricsFeed feed = parse_metrics(path);
  require(feed.have_summary, path, "no summary event (run did not finish?)");
  std::cout << path << ": ok (" << feed.cells.size() << " cell events, "
            << feed.progress_events << " progress events)\n";
  return 0;
}

int cmd_validate_trace(const std::string& path) {
  const JsonValue doc = JsonValue::parse(read_file(path));
  const std::vector<JsonValue>& events = doc.at("traceEvents").as_array();
  std::size_t spans = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::string context = path + ": traceEvents[" + std::to_string(i) +
                                "]";
    const JsonValue& e = events[i];
    require(!e.at("name").as_string().empty(), context, "empty name");
    (void)e.at("cat").as_string();
    (void)e.at("pid").as_number();
    (void)e.at("tid").as_number();
    require(e.at("ts").as_number() >= 0.0, context, "negative timestamp");
    const std::string& ph = e.at("ph").as_string();
    if (ph == "X") {
      require(e.at("dur").as_number() >= 0.0, context, "negative duration");
      ++spans;
    } else {
      require(ph == "i", context, "unknown phase \"" + ph + "\"");
    }
  }
  std::cout << path << ": ok (" << events.size() << " events, " << spans
            << " spans)\n";
  return 0;
}

// --- strip-runtime -------------------------------------------------------

// Removes every "runtime" stamp (sprout::strip_json_member), so the output
// byte-diffs clean against a run that never recorded runtime.
int cmd_strip_runtime(const std::string& in_path,
                      const std::string& out_path) {
  std::string text = read_file(in_path);
  const std::size_t stripped = sprout::strip_json_member(text, "runtime");
  write_file(out_path, [&](std::ostream& os) { os << text; });
  std::cout << in_path << " -> " << out_path << " (" << stripped
            << " runtime stamps removed)\n";
  return 0;
}

int usage() {
  std::cerr <<
      "usage:\n"
      "  obs_report metrics          METRICS.jsonl\n"
      "  obs_report sweep            SWEEP.json\n"
      "  obs_report validate-metrics METRICS.jsonl\n"
      "  obs_report validate-trace   TRACE.json\n"
      "  obs_report strip-runtime    IN.json OUT.json\n"
      "exit codes: 0 ok, 1 invalid input, 2 usage\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  try {
    if (command == "metrics" && argc == 3) return cmd_metrics(argv[2]);
    if (command == "sweep" && argc == 3) return cmd_sweep(argv[2]);
    if (command == "validate-metrics" && argc == 3) {
      return cmd_validate_metrics(argv[2]);
    }
    if (command == "validate-trace" && argc == 3) {
      return cmd_validate_trace(argv[2]);
    }
    if (command == "strip-runtime" && argc == 4) {
      return cmd_strip_runtime(argv[2], argv[3]);
    }
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "obs_report: " << e.what() << "\n";
    return 1;
  }
}
