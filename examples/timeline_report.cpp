// timeline_report — render, export and validate flight-recorder timelines.
//
// Sweeps run with record_timeline (or the sweep CLIs' --timeline flag)
// stamp each flow with a per-bin "timeline": forecast vs. realized
// capacity, achieved throughput, queue depth, drops, and per-bin delay.
// This tool is the read side:
//
//   timeline_report chart             SWEEP.json [--cell I] [--flow F]
//   timeline_report export            SWEEP.json --out PATH
//                                     [--format jsonl|csv] [--cell I]
//                                     [--flow F]
//   timeline_report export-trace      SWEEP.json --out TRACE.json
//                                     [--merge TRACE_IN.json]
//   timeline_report validate-timeline SWEEP.json
//   timeline_report strip-timeline    IN.json OUT.json
//
// `chart` draws the paper's Figure-6-style view in the terminal
// (util/ascii_plot.h): realized capacity bars with the cautious forecast
// marked on the same scale, then the per-bin delay.  `export` flattens
// timelines to JSONL or CSV for external plotting.  `export-trace` emits
// Chrome counter tracks ("ph": "C" — chrome://tracing / ui.perfetto.dev)
// and can merge them into an orchestrator --trace-out file so one trace
// shows worker spans above per-flow rate/queue/delay counters.
// `validate-timeline` is the CI schema gate: path-aware errors, non-zero
// exit on the first violation.  `strip-timeline` removes every
// `"timeline"` member textually so a timeline-on run byte-diffs clean
// against a timeline-off run (the timeline-smoke CI job's identity
// check), exactly as `obs_report strip-runtime` does for runtime stamps.
//
// Exit codes: 0 ok, 1 invalid input, 2 usage.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "runner/shard.h"
#include "util/ascii_plot.h"
#include "util/file_io.h"
#include "util/table.h"

namespace {

using sprout::AsciiPlotOptions;
using sprout::JsonValue;
using sprout::read_file;
using sprout::write_file;

void require(bool ok, const std::string& context, const std::string& what) {
  if (!ok) throw std::runtime_error(context + ": " + what);
}

// --- timeline model ------------------------------------------------------

struct Point {
  double time_s = 0.0;
  double forecast_kbps = 0.0;
  double capacity_kbps = 0.0;
  double throughput_kbps = 0.0;
  std::int64_t queue_max_packets = 0;
  std::int64_t queue_max_bytes = 0;
  std::int64_t drops = 0;
  double mean_delay_ms = 0.0;
  double max_delay_ms = 0.0;
};

struct FlowTimeline {
  std::int64_t cell_index = 0;
  std::size_t flow_index = 0;
  std::string label;
  double bin_s = 0.0;
  std::vector<Point> points;
};

// Parses and schema-checks one "timeline" member.  Rendering, export and
// `validate-timeline` all come through here, so they cannot diverge on
// what counts as well-formed; `context` names the path to the member
// ("file: cells[3].result.flows[1].timeline") so a violation points at the
// offending value, not just the file.
std::vector<Point> parse_timeline(const JsonValue& t,
                                  const std::string& context) {
  const double bin_s = t.at("bin_s").as_number();
  const double from_s = t.at("from_s").as_number();
  require(bin_s > 0.0 && std::isfinite(bin_s), context, "bin_s must be > 0");
  require(from_s >= 0.0 && std::isfinite(from_s), context,
          "from_s must be >= 0");
  std::vector<Point> points;
  double last_time = from_s - bin_s;
  const std::vector<JsonValue>& tuples = t.at("points").as_array();
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    const std::string at = context + ".points[" + std::to_string(i) + "]";
    const std::vector<JsonValue>& tuple = tuples[i].as_array();
    require(tuple.size() == 9, at, "expected a 9-tuple, got " +
                                       std::to_string(tuple.size()) +
                                       " elements");
    Point p;
    p.time_s = tuple[0].as_number();
    p.forecast_kbps = tuple[1].as_number();
    p.capacity_kbps = tuple[2].as_number();
    p.throughput_kbps = tuple[3].as_number();
    p.queue_max_packets = static_cast<std::int64_t>(tuple[4].as_number());
    p.queue_max_bytes = static_cast<std::int64_t>(tuple[5].as_number());
    p.drops = static_cast<std::int64_t>(tuple[6].as_number());
    p.mean_delay_ms = tuple[7].as_number();
    p.max_delay_ms = tuple[8].as_number();
    require(std::isfinite(p.time_s) && p.time_s >= from_s, at,
            "time_s outside the recording window");
    require(p.time_s > last_time, at, "time_s not strictly increasing");
    last_time = p.time_s;
    require(std::isfinite(p.forecast_kbps) && p.forecast_kbps >= 0.0, at,
            "forecast_kbps must be >= 0");
    require(std::isfinite(p.capacity_kbps) && p.capacity_kbps >= 0.0, at,
            "capacity_kbps must be >= 0");
    require(std::isfinite(p.throughput_kbps) && p.throughput_kbps >= 0.0, at,
            "throughput_kbps must be >= 0");
    require(p.queue_max_packets >= 0, at, "queue_max_packets must be >= 0");
    require(p.queue_max_bytes >= 0, at, "queue_max_bytes must be >= 0");
    require(p.drops >= 0, at, "drops must be >= 0");
    require(std::isfinite(p.mean_delay_ms) && p.mean_delay_ms >= 0.0, at,
            "mean_delay_ms must be >= 0");
    require(std::isfinite(p.max_delay_ms) &&
                p.max_delay_ms >= p.mean_delay_ms,
            at, "max_delay_ms must be >= mean_delay_ms");
    points.push_back(p);
  }
  return points;
}

// Walks a sweep/shard document and collects every flow timeline.  Both
// file shapes carry "cells": [{"index": ..., "result": {...}}].
std::vector<FlowTimeline> collect_timelines(const std::string& path,
                                            const JsonValue& doc) {
  std::vector<FlowTimeline> timelines;
  const std::vector<JsonValue>& cells = doc.at("cells").as_array();
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const std::string cell_ctx = path + ": cells[" + std::to_string(c) + "]";
    const JsonValue& cell = cells[c];
    const auto index = static_cast<std::int64_t>(cell.at("index").as_number());
    const std::vector<JsonValue>& flows =
        cell.at("result").at("flows").as_array();
    for (std::size_t f = 0; f < flows.size(); ++f) {
      const JsonValue& flow = flows[f];
      if (!flow.has("timeline")) continue;
      const std::string ctx =
          cell_ctx + ".result.flows[" + std::to_string(f) + "].timeline";
      FlowTimeline t;
      t.cell_index = index;
      t.flow_index = f;
      t.label = flow.at("label").as_string();
      t.bin_s = flow.at("timeline").at("bin_s").as_number();
      t.points = parse_timeline(flow.at("timeline"), ctx);
      timelines.push_back(std::move(t));
    }
  }
  return timelines;
}

// --cell / --flow selection; defaults to the first recorded timeline.
const FlowTimeline& select_timeline(const std::vector<FlowTimeline>& all,
                                    const std::string& path,
                                    std::optional<std::int64_t> cell,
                                    std::optional<std::size_t> flow) {
  require(!all.empty(), path, "no timelines recorded (run with --timeline?)");
  for (const FlowTimeline& t : all) {
    if (cell.has_value() && t.cell_index != *cell) continue;
    if (flow.has_value() && t.flow_index != *flow) continue;
    return t;
  }
  throw std::runtime_error(
      path + ": no timeline matches the requested cell/flow");
}

// --- chart ---------------------------------------------------------------

int cmd_chart(const std::string& path, std::optional<std::int64_t> cell,
              std::optional<std::size_t> flow) {
  const JsonValue doc = JsonValue::parse(read_file(path));
  const std::vector<FlowTimeline> all = collect_timelines(path, doc);
  const FlowTimeline& t = select_timeline(all, path, cell, flow);

  std::vector<double> capacity;
  std::vector<double> forecast;
  std::vector<double> mean_delay;
  std::vector<double> max_delay;
  double peak_rate = 0.0;
  double peak_delay = 0.0;
  for (const Point& p : t.points) {
    capacity.push_back(p.capacity_kbps);
    forecast.push_back(p.forecast_kbps);
    mean_delay.push_back(p.mean_delay_ms);
    max_delay.push_back(p.max_delay_ms);
    peak_rate = std::max({peak_rate, p.capacity_kbps, p.forecast_kbps});
    peak_delay = std::max(peak_delay, p.max_delay_ms);
  }

  std::cout << path << ": cell " << t.cell_index << ", flow " << t.flow_index
            << " (" << t.label << "), " << t.points.size() << " bins of "
            << sprout::format_double(t.bin_s, 3) << " s\n";
  AsciiPlotOptions opt;
  opt.bin_s = t.bin_s;
  std::cout << "\nrealized capacity (#) vs cautious forecast (*), full bar = "
            << sprout::format_double(peak_rate, 0) << " kbps:\n";
  render_ascii_plot(std::cout, capacity, forecast, opt);
  std::cout << "\nper-bin delay: mean (#) and max (*), full bar = "
            << sprout::format_double(peak_delay, 0) << " ms:\n";
  render_ascii_plot(std::cout, mean_delay, max_delay, opt);
  return 0;
}

// --- export --------------------------------------------------------------

int cmd_export(const std::string& path, const std::string& out_path,
               const std::string& format, std::optional<std::int64_t> cell,
               std::optional<std::size_t> flow) {
  const JsonValue doc = JsonValue::parse(read_file(path));
  std::vector<FlowTimeline> all = collect_timelines(path, doc);
  std::vector<FlowTimeline> selected;
  for (FlowTimeline& t : all) {
    if (cell.has_value() && t.cell_index != *cell) continue;
    if (flow.has_value() && t.flow_index != *flow) continue;
    selected.push_back(std::move(t));
  }
  require(!selected.empty(), path, "no timelines match the selection");

  std::size_t rows = 0;
  write_file(out_path, [&](std::ostream& os) {
    if (format == "csv") {
      os << "cell,flow,label,time_s,forecast_kbps,capacity_kbps,"
            "throughput_kbps,queue_max_packets,queue_max_bytes,drops,"
            "mean_delay_ms,max_delay_ms\n";
    }
    for (const FlowTimeline& t : selected) {
      for (const Point& p : t.points) {
        if (format == "csv") {
          os << t.cell_index << ',' << t.flow_index << ',' << t.label << ','
             << p.time_s << ',' << p.forecast_kbps << ',' << p.capacity_kbps
             << ',' << p.throughput_kbps << ',' << p.queue_max_packets << ','
             << p.queue_max_bytes << ',' << p.drops << ',' << p.mean_delay_ms
             << ',' << p.max_delay_ms << '\n';
        } else {
          os << "{\"cell\": " << t.cell_index
             << ", \"flow\": " << t.flow_index << ", \"label\": ";
          sprout::write_json_string(os, t.label);
          os << ", \"time_s\": " << p.time_s
             << ", \"forecast_kbps\": " << p.forecast_kbps
             << ", \"capacity_kbps\": " << p.capacity_kbps
             << ", \"throughput_kbps\": " << p.throughput_kbps
             << ", \"queue_max_packets\": " << p.queue_max_packets
             << ", \"queue_max_bytes\": " << p.queue_max_bytes
             << ", \"drops\": " << p.drops
             << ", \"mean_delay_ms\": " << p.mean_delay_ms
             << ", \"max_delay_ms\": " << p.max_delay_ms << "}\n";
        }
        ++rows;
      }
    }
  });
  std::cout << path << " -> " << out_path << " (" << rows << " " << format
            << " rows from " << selected.size() << " timelines)\n";
  return 0;
}

// --- export-trace --------------------------------------------------------

// Chrome counter tracks: one "C" event per bin per counter, each flow on
// its own tid so chrome://tracing stacks the tracks.  With --merge, the
// events of an existing trace (the orchestrator's --trace-out spans) are
// re-emitted first, composing worker spans and flow counters in one file.
int cmd_export_trace(const std::string& path, const std::string& out_path,
                     const std::string& merge_path) {
  const JsonValue doc = JsonValue::parse(read_file(path));
  const std::vector<FlowTimeline> timelines = collect_timelines(path, doc);
  require(!timelines.empty(), path,
          "no timelines recorded (run with --timeline?)");

  std::vector<std::string> merged_events;
  if (!merge_path.empty()) {
    // Textual splice: the span events between the base file's traceEvents
    // '[' and its ']' are preserved byte-for-byte (JsonValue has no
    // writer, and re-serializing someone else's events would reformat
    // them).  Parse first so a damaged base file fails here, not in the
    // viewer.
    const std::string text = read_file(merge_path);
    (void)JsonValue::parse(text).at("traceEvents").as_array();
    const std::size_t open = text.find('[');
    const std::size_t close = text.rfind(']');
    require(open != std::string::npos && close != std::string::npos &&
                close > open,
            merge_path, "no traceEvents array to merge");
    const std::string body = text.substr(open + 1, close - open - 1);
    if (body.find_first_not_of(" \t\r\n") != std::string::npos) {
      merged_events.push_back(body);
    }
  }

  std::size_t events = 0;
  write_file(out_path, [&](std::ostream& os) {
    os << "{\"traceEvents\": [";
    bool first = true;
    for (const std::string& body : merged_events) {
      os << body;
      first = false;
    }
    for (const FlowTimeline& t : timelines) {
      // tid 1000+flow keeps counter tracks clear of worker-lane tids.
      const std::int64_t tid = 1000 + static_cast<std::int64_t>(t.flow_index);
      for (const Point& p : t.points) {
        if (!first) os << ",";
        first = false;
        os << "\n  {\"name\": ";
        sprout::write_json_string(
            os, "cell " + std::to_string(t.cell_index) + " " + t.label +
                    " rate (kbps)");
        os << ", \"cat\": \"timeline\", \"ph\": \"C\", \"pid\": "
           << t.cell_index << ", \"tid\": " << tid
           << ", \"ts\": " << p.time_s * 1e6
           << ", \"args\": {\"capacity\": " << p.capacity_kbps
           << ", \"forecast\": " << p.forecast_kbps
           << ", \"throughput\": " << p.throughput_kbps << "}},\n  ";
        os << "{\"name\": ";
        sprout::write_json_string(
            os, "cell " + std::to_string(t.cell_index) + " " + t.label +
                    " queue/delay");
        os << ", \"cat\": \"timeline\", \"ph\": \"C\", \"pid\": "
           << t.cell_index << ", \"tid\": " << tid
           << ", \"ts\": " << p.time_s * 1e6
           << ", \"args\": {\"queue_packets\": " << p.queue_max_packets
           << ", \"drops\": " << p.drops
           << ", \"mean_delay_ms\": " << p.mean_delay_ms << "}}";
        events += 2;
      }
    }
    os << "\n]}\n";
  });
  // The splice above must compose to valid JSON; refuse to ship otherwise.
  (void)JsonValue::parse(read_file(out_path));
  std::cout << path << " -> " << out_path << " (" << events
            << " counter events" <<
      (merge_path.empty() ? std::string()
                          : ", merged with " + merge_path) << ")\n";
  return 0;
}

// --- validate-timeline ---------------------------------------------------

int cmd_validate(const std::string& path) {
  const JsonValue doc = JsonValue::parse(read_file(path));
  const std::vector<FlowTimeline> timelines = collect_timelines(path, doc);
  std::size_t points = 0;
  for (const FlowTimeline& t : timelines) points += t.points.size();
  std::cout << path << ": ok (" << timelines.size() << " timelines, "
            << points << " points)\n";
  return 0;
}

// --- strip-timeline ------------------------------------------------------

// Removes every "timeline" member (sprout::strip_json_member; the member is
// geometry fields plus an array of 9-element ARRAYS, so it holds no nested
// braces), reproducing the timeline-off byte stream exactly.
int cmd_strip(const std::string& in_path, const std::string& out_path) {
  std::string text = read_file(in_path);
  const std::size_t stripped = sprout::strip_json_member(text, "timeline");
  write_file(out_path, [&](std::ostream& os) { os << text; });
  std::cout << in_path << " -> " << out_path << " (" << stripped
            << " timelines removed)\n";
  return 0;
}

int usage() {
  std::cerr <<
      "usage:\n"
      "  timeline_report chart             SWEEP.json [--cell I] [--flow F]\n"
      "  timeline_report export            SWEEP.json --out PATH"
      " [--format jsonl|csv]\n"
      "                                    [--cell I] [--flow F]\n"
      "  timeline_report export-trace      SWEEP.json --out TRACE.json"
      " [--merge TRACE_IN.json]\n"
      "  timeline_report validate-timeline SWEEP.json\n"
      "  timeline_report strip-timeline    IN.json OUT.json\n"
      "exit codes: 0 ok, 1 invalid input, 2 usage\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  std::vector<std::string> positional;
  std::string out_path;
  std::string merge_path;
  std::string format = "jsonl";
  std::optional<std::int64_t> cell;
  std::optional<std::size_t> flow;

  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--out") out_path = value();
      else if (arg == "--merge") merge_path = value();
      else if (arg == "--format") format = value();
      else if (arg == "--cell") cell = std::stoll(value());
      else if (arg == "--flow") {
        flow = static_cast<std::size_t>(std::stoull(value()));
      }
      else if (arg.rfind("--", 0) == 0) return usage();
      else positional.push_back(arg);
    }
    if (format != "jsonl" && format != "csv") return usage();

    if (command == "chart" && positional.size() == 1) {
      return cmd_chart(positional[0], cell, flow);
    }
    if (command == "export" && positional.size() == 1 && !out_path.empty()) {
      return cmd_export(positional[0], out_path, format, cell, flow);
    }
    if (command == "export-trace" && positional.size() == 1 &&
        !out_path.empty()) {
      return cmd_export_trace(positional[0], out_path, merge_path);
    }
    if (command == "validate-timeline" && positional.size() == 1) {
      return cmd_validate(positional[0]);
    }
    if (command == "strip-timeline" && positional.size() == 2) {
      return cmd_strip(positional[0], positional[1]);
    }
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "timeline_report: " << e.what() << "\n";
    return 1;
  }
}
