#include "workload.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <algorithm>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>
#include <set>
#include <sstream>

#include "core/forecaster.h"
#include "core/rate_model.h"
#include "obs/metrics.h"
#include "runner/shard.h"
#include "runner/sweep.h"
#include "spec/grid.h"
#include "trace/presets.h"

namespace perfbench {

using namespace sprout;

namespace {

struct Entry {
  const char* name;
  Kind kind;
  const char* spec_file;
};

constexpr Entry kWorkloads[] = {
    {"tower", Kind::kTower, "tower.json"},
    {"paper-grid", Kind::kPaperGrid, "paper_grid.json"},
    {"tcp-shared", Kind::kTcpShared, "tcp_shared.json"},
};

const Entry& find_entry(const std::string& name) {
  for (const Entry& e : kWorkloads) {
    if (name == e.name) return e;
  }
  throw std::invalid_argument("unknown workload " + name);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = kFnv1aOffsetBasis;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

bool has_sprout_flow(const ScenarioSpec& spec) {
  if (spec.topology.kind == TopologySpec::Kind::kTower) {
    for (const UserMixEntry& m : spec.topology.tower_spec.mix) {
      if (m.scheme == SchemeId::kSprout) return true;
    }
    return false;
  }
  if (spec.scheme == SchemeId::kSprout) return true;
  for (const FlowSpec& f : spec.topology.flows) {
    if (f.scheme == SchemeId::kSprout) return true;
  }
  return false;
}

// A hand-assembled spec whose flow count contradicts its flow list:
// run_scenario's topology validation rejects it.
ScenarioSpec rejected_spec() {
  ScenarioSpec bad = single_flow_scenario(SchemeId::kCubic,
                                          all_link_presets().front());
  bad.topology.kind = TopologySpec::Kind::kSharedQueue;
  bad.topology.num_flows = 3;
  bad.topology.flows = {FlowSpec::of(SchemeId::kCubic),
                        FlowSpec::of(SchemeId::kCubic)};
  return bad;
}

}  // namespace

bool known_workload(const std::string& name) {
  for (const Entry& e : kWorkloads) {
    if (name == e.name) return true;
  }
  return false;
}

Workload load_workload(const std::string& name, std::uint64_t seed,
                       const LoadOptions& options, SetupTimes& times,
                       SpanLog& spans) {
  const Entry& entry = find_entry(name);
  Workload w;
  w.name = name;
  w.kind = entry.kind;
  w.seed = seed;
  // paper-grid is the one threaded workload: a fixed four threads, fewer
  // only on a smaller machine.
  w.threads = entry.kind == Kind::kPaperGrid
                  ? static_cast<int>(std::max(
                        1u, std::min(4u, std::thread::hardware_concurrency())))
                  : 1;

  ScopedSpan setup(spans, "setup " + name);
  const std::int64_t t0 = now_ns();
  std::uint64_t spec_base_seed = 0;
  {
    ScopedSpan s(spans, "spec.load", setup.id());
    const spec::ExperimentSpec e = spec::parse_experiment_file(
        options.root + "/perfbench/specs/" + entry.spec_file);
    w.cells = e.sweep.cells;
    spec_base_seed = e.sweep.base_seed.value_or(0);
  }
  for (std::size_t c = 0; c < w.cells.size(); ++c) {
    ScenarioSpec& cell = w.cells[c];
    if (options.short_run) {
      cell.run_time = sec(10);
      cell.warmup = msec(2500);
    }
    switch (entry.kind) {
      case Kind::kTower:
        // The population, its churn and its scheme draws are the spec's
        // own (they set the cell's cost); the seed picks the users'
        // channel realisations.
        cell.seed = derive_cell_seed(spec_base_seed, cell);
        cell.topology.tower_spec.channel.seed = seed;
        break;
      case Kind::kPaperGrid:
        break;  // SweepRunner derives every cell's seed from `seed`
      case Kind::kTcpShared:
        // The seed drives the forward link's Bernoulli loss process.
        cell.seed = derive_cell_seed(seed, cell);
        break;
    }
    w.simulated_s += to_seconds(cell.run_time);
    if (has_sprout_flow(cell)) w.outcome_over_sprout = true;
  }
  if (options.inject_bad_cell) w.cells.push_back(rejected_spec());
  const std::int64_t t1 = now_ns();

  if (w.outcome_over_sprout) {
    ScopedSpan s(spans, "tables.get", setup.id());
    const SproutParams params;
    (void)TransitionMatrixCache::get(params);
    (void)ForecastTableCache::get(params);
  }
  const std::int64_t t2 = now_ns();

  {
    ScopedSpan s(spans, "trace.generate", setup.id());
    std::set<std::string> seen;
    for (const ScenarioSpec& cell : w.cells) {
      if (cell.topology.kind == TopologySpec::Kind::kTower ||
          cell.link.source != LinkSpec::Source::kPreset) {
        continue;
      }
      const LinkPreset& fwd =
          find_link_preset(cell.link.network, cell.link.direction);
      const LinkPreset& rev = find_link_preset(
          cell.link.network, cell.link.direction == LinkDirection::kDownlink
                                 ? LinkDirection::kUplink
                                 : LinkDirection::kDownlink);
      const Duration needed = cell.run_time + sec(2);
      if (seen.insert(fwd.name()).second) {
        w.traces.push_back(preset_trace(fwd, needed));
      }
      if (seen.insert(rev.name()).second) {
        w.traces.push_back(preset_trace(rev, needed));
      }
    }
  }
  const std::int64_t t3 = now_ns();

  times.spec_s = static_cast<double>(t1 - t0) * 1e-9;
  times.tables_s = static_cast<double>(t2 - t1) * 1e-9;
  times.traces_s = static_cast<double>(t3 - t2) * 1e-9;
  times.total_s = static_cast<double>(t3 - t0) * 1e-9;
  return w;
}

namespace {

// Per-cell checks every workload shares; returns "" when the cell passes.
std::string check_cell(const ScenarioResult& r) {
  if (r.flows.empty()) return "no flows in the result";
  if (!std::isfinite(r.aggregate_utilization) || r.aggregate_utilization <= 0.0) {
    return "aggregate utilization is not positive";
  }
  return "";
}

void summarize(const Workload& w, const std::vector<ScenarioSpec>& cells,
               std::vector<std::optional<ScenarioResult>>& results,
               RepResult& out) {
  // paper-grid: Sprout's self-inflicted delay must sit below Cubic's on
  // every link, the paper's ordering (Figure 7, Table 1).
  if (w.kind == Kind::kPaperGrid) {
    std::map<std::string, std::size_t> sprout_cell;
    std::map<std::string, std::size_t> cubic_cell;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].scheme == SchemeId::kSprout) {
        sprout_cell[cells[i].link.name()] = i;
      } else if (cells[i].scheme == SchemeId::kCubic) {
        cubic_cell[cells[i].link.name()] = i;
      }
    }
    for (const auto& [link, si] : sprout_cell) {
      const auto ci = cubic_cell.find(link);
      if (ci == cubic_cell.end() || !results[si] || !results[ci->second]) {
        continue;
      }
      const double sprout = results[si]->self_inflicted_delay_ms();
      const double cubic = results[ci->second]->self_inflicted_delay_ms();
      if (!(sprout < cubic)) {
        std::ostringstream msg;
        msg << "on " << link << " Sprout's self-inflicted delay " << sprout
            << " ms is not below Cubic's " << cubic << " ms";
        out.problems.push_back(msg.str());
        results[si].reset();
        results[ci->second].reset();
        out.failed += 2;
        out.check_failures += 2;
      }
    }
  }

  double tput = 0.0;
  double delay = 0.0;
  int flows = 0;
  int ok_cells = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i]) {
      out.digests.emplace_back();
      continue;
    }
    const ScenarioResult& r = *results[i];
    if (const std::string why = check_cell(r); !why.empty()) {
      out.problems.push_back("cell " + std::to_string(i) + ": " + why);
      ++out.failed;
      ++out.check_failures;
      out.digests.emplace_back();
      continue;
    }
    std::ostringstream json;
    write_scenario_result_json(json, r);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fnv1a(json.str())));
    out.digests.emplace_back(hex);
    ++ok_cells;
    out.simulated_s += to_seconds(cells[i].run_time);
    out.utilization += r.aggregate_utilization;
    out.packets_delivered += r.packets_delivered;
    out.drops += r.link_drops;
    for (std::size_t f = 0; f < r.flows.size(); ++f) {
      const FlowMetricsView v = r.flow_metrics(f);
      if (w.outcome_over_sprout && v.scheme() != SchemeId::kSprout) continue;
      tput += v.throughput_kbps();
      delay += v.delay95_ms();
      ++flows;
    }
  }
  if (ok_cells > 0) out.utilization /= ok_cells;
  if (flows > 0) {
    out.outcome_tput_kbps = tput / flows;
    out.outcome_delay95_ms = delay / flows;
  }
}

std::string serialize(const RepResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << "wall_s " << r.wall_s << "\nsimulated_s " << r.simulated_s
     << "\npeak_rss_mb " << r.peak_rss_mb << "\ncells " << r.cells
     << "\nfailed " << r.failed << "\ncheck_failures " << r.check_failures
     << "\noutcome " << r.outcome_tput_kbps << ' '
     << r.outcome_delay95_ms << ' ' << r.utilization << "\nlink "
     << r.packets_delivered << ' ' << r.drops << '\n';
  for (const double v : r.cell_walls) os << "cell_wall " << v << '\n';
  for (const std::string& d : r.digests) {
    os << "digest " << (d.empty() ? "-" : d) << '\n';
  }
  for (const std::string& p : r.problems) os << "problem " << p << '\n';
  for (const auto& [name, v] : r.registry) {
    os << "registry " << name << ' ' << v << '\n';
  }
  for (const Span& s : r.spans) {
    os << "span " << s.id << ' ' << s.parent << ' ' << s.pid << ' '
       << s.start_ns << ' ' << s.end_ns << ' ' << s.name << '\n';
  }
  return os.str();
}

}  // namespace

std::vector<int> cell_shards(const Workload& w, int shards) {
  std::map<std::string, int> link_index;
  for (const ScenarioSpec& cell : w.cells) link_index[cell.link.name()] = 0;
  int next = 0;
  for (auto& [name, index] : link_index) index = next++;
  std::vector<int> out;
  for (const ScenarioSpec& cell : w.cells) {
    out.push_back(link_index[cell.link.name()] % std::max(1, shards));
  }
  return out;
}

RepResult merge_shards(const std::vector<std::optional<RepResult>>& parts,
                       const std::vector<int>& shards) {
  RepResult out;
  out.cells = static_cast<int>(shards.size());
  for (const std::optional<RepResult>& p : parts) {
    if (!p) continue;
    out.wall_s = std::max(out.wall_s, p->wall_s);
    out.simulated_s += p->simulated_s;
    out.peak_rss_mb = std::max(out.peak_rss_mb, p->peak_rss_mb);
    out.failed += p->failed;
    out.check_failures += p->check_failures;
    out.packets_delivered += p->packets_delivered;
    out.drops += p->drops;
    out.problems.insert(out.problems.end(), p->problems.begin(),
                        p->problems.end());
    // Span ids index the joined list, as they did each part's.
    const int base = static_cast<int>(out.spans.size());
    for (Span s : p->spans) {
      s.id += base;
      if (s.parent >= 0) s.parent += base;
      out.spans.push_back(std::move(s));
    }
  }
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::optional<RepResult>& p = parts[shards[i]];
    const bool ran = p && i < p->digests.size() && i < p->cell_walls.size();
    out.cell_walls.push_back(ran ? p->cell_walls[i] : 0.0);
    out.digests.push_back(ran ? p->digests[i] : std::string());
  }
  return out;
}

std::string run_repetition(const Workload& w, const RepOptions& options) {
  if (options.traced) sprout::obs::set_enabled(true);
  std::vector<ScenarioSpec> cells = w.cells;
  if (options.flip_recorder) {
    for (ScenarioSpec& c : cells) c.record_timeline = !c.record_timeline;
  }

  RepResult out;
  out.cells = static_cast<int>(cells.size());
  std::vector<std::optional<ScenarioResult>> results(cells.size());
  SpanLog spans;
  const std::int64_t t0 = now_ns();
  if (w.kind == Kind::kPaperGrid && !options.serial_reference) {
    ScopedSpan s(spans, "SweepRunner::run threads=" + std::to_string(w.threads));
    SweepRunner runner(SweepOptions{w.threads, w.seed});
    try {
      std::vector<ScenarioResult> all = runner.run(cells);
      for (std::size_t i = 0; i < all.size(); ++i) results[i] = std::move(all[i]);
    } catch (const std::exception& e) {
      // The sweep rethrows a cell's failure after the pool drains and
      // returns no results, so the whole batch counts as failed.
      out.problems.push_back(std::string("sweep threw: ") + e.what());
      out.failed = out.cells;
    }
  } else {
    // One cell at a time: run_scenario directly, or (paper-grid's serial
    // reference) a one-thread SweepRunner fed one cell per call, its trace
    // cache shared across calls as within one sweep.
    SweepRunner serial(SweepOptions{1, w.seed});
    ScenarioCache cache;
    const std::vector<int> owner = cell_shards(w, options.shards);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (owner[i] != options.shard) {
        out.cell_walls.push_back(0.0);
        continue;
      }
      ScopedSpan s(spans, "run_scenario " + std::to_string(i));
      const std::int64_t c0 = now_ns();
      try {
        if (options.serial_reference) {
          results[i] = std::move(serial.run({cells[i]}).front());
        } else {
          results[i] = run_scenario(cells[i], &cache);
        }
      } catch (const std::exception& e) {
        out.problems.push_back("cell " + std::to_string(i) + " threw: " +
                               e.what());
        ++out.failed;
      }
      out.cell_walls.push_back(static_cast<double>(now_ns() - c0) * 1e-9);
    }
  }
  out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;

  summarize(w, cells, results, out);

  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  out.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (options.traced) {
    for (const obs::MetricSample& m : obs::Registry::instance().snapshot()) {
      if (m.kind == obs::MetricSample::Kind::kCounter) {
        out.registry[m.name] = static_cast<double>(m.count);
      } else if (m.kind == obs::MetricSample::Kind::kGauge) {
        out.registry[m.name] = m.value;
      }
    }
  }
  out.spans = spans.spans();
  return serialize(out);
}

RepResult parse_repetition(const std::string& text) {
  RepResult r;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    const auto rest = [&] {
      std::string s;
      std::getline(ls >> std::ws, s);
      return s;
    };
    if (key == "wall_s") {
      ls >> r.wall_s;
    } else if (key == "simulated_s") {
      ls >> r.simulated_s;
    } else if (key == "peak_rss_mb") {
      ls >> r.peak_rss_mb;
    } else if (key == "cells") {
      ls >> r.cells;
    } else if (key == "failed") {
      ls >> r.failed;
    } else if (key == "check_failures") {
      ls >> r.check_failures;
    } else if (key == "outcome") {
      ls >> r.outcome_tput_kbps >> r.outcome_delay95_ms >> r.utilization;
    } else if (key == "link") {
      ls >> r.packets_delivered >> r.drops;
    } else if (key == "cell_wall") {
      double v = 0.0;
      ls >> v;
      r.cell_walls.push_back(v);
    } else if (key == "digest") {
      std::string d;
      ls >> d;
      r.digests.push_back(d == "-" ? std::string() : d);
    } else if (key == "problem") {
      r.problems.push_back(rest());
    } else if (key == "registry") {
      std::string name;
      double v = 0.0;
      ls >> name >> v;
      r.registry[name] = v;
    } else if (key == "span") {
      Span s;
      ls >> s.id >> s.parent >> s.pid >> s.start_ns >> s.end_ns;
      s.name = rest();
      r.spans.push_back(std::move(s));
    }
  }
  return r;
}

}  // namespace perfbench
