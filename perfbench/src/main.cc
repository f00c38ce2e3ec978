// perfbench: the end-to-end benchmark of the Sprout reproduction.
//
//   perfbench --workload tower|paper-grid|tcp-shared --seed N --seconds S
//             --trace 0|1 [--short] [--inject-bad-cell] [--root DIR]
//
// --trace 0 times the workload and prints the end-to-end metrics; --trace 1
// is the separate traced run that prints the per-layer metrics.  Every
// repetition of a workload's batch runs in its own forked process, so an
// abort costs that repetition's cells, counted as failed, not the run.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// perfbench/README.md describes the workloads and every metric.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/params.h"
#include "isolate.h"
#include "replay.h"
#include "spans.h"
#include "stats.h"
#include "util/kernels.h"
#include "workload.h"

namespace perfbench {
namespace {

// Fresh-process set-up samples taken per run, besides the run's own.
constexpr int kSetupProbes = 24;
// paper-grid's timed run alternates serial reference passes, which time
// its cells, with threaded repetitions; it makes at least this many passes.
constexpr int kMinSerialPasses = 3;
// A repetition that has not finished by then is killed and its cells
// count as failed.
constexpr double kRepTimeoutS = 60.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  LoadOptions load;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload tower|paper-grid|tcp-shared "
               "--seed N --seconds S --trace 0|1 [--short] "
               "[--inject-bad-cell] [--root DIR]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--root") {
        o.load.root = value();
      } else if (a == "--short") {
        o.load.short_run = true;
      } else if (a == "--inject-bad-cell") {
        o.load.inject_bad_cell = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!have_workload || !known_workload(o.workload)) {
    usage("--workload must be tower, paper-grid or tcp-shared");
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string machine_stamp(const Options& o, const Workload& w) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"cpu\": \"" << json_escape(cpu_model())
     << "\", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": \"" << json_escape(compiler())
     << "\", \"kernel_backend\": \"" << sprout::kernels::active_backend()
     << "\", \"workload\": \"" << w.name << "\", \"threads\": " << w.threads
     << ", \"seed\": " << o.seed << ", \"cells_per_batch\": " << w.cells.size()
     << ", \"simulated_s_per_batch\": " << w.simulated_s
     << ", \"short\": " << (o.load.short_run ? "true" : "false") << "}";
  return os.str();
}

// --- repetitions ------------------------------------------------------------

struct Phase {
  std::vector<RepResult> reps;  // the repetitions that completed
  int attempted = 0;            // cells
  int failed = 0;               // cells
  int check_failures = 0;       // cells
  std::vector<std::string> problems;
};

// Runs repetitions until `budget_s` has passed and at least `min_reps`
// completed.  A repetition runs in its own process, or split into
// `ro.shards` processes that run at once, each taking the cells of its
// share of the links.  Repetitions that die are counted and replaced, up
// to ten times `min_reps` attempts past the budget.
Phase run_phase(const Workload& w, const RepOptions& ro, double budget_s,
                int min_reps, const std::string& label, SpanLog& spans) {
  Phase p;
  const int shards = ro.shards;
  const std::vector<int> owner = cell_shards(w, shards);
  std::vector<std::function<std::string()>> bodies;
  for (int k = 0; k < shards; ++k) {
    RepOptions part = ro;
    part.shard = k;
    bodies.emplace_back([&w, part] { return run_repetition(w, part); });
  }
  const std::int64_t start = now_ns();
  for (int n = 0;; ++n) {
    const bool in_budget =
        static_cast<double>(now_ns() - start) * 1e-9 < budget_s;
    const bool enough = static_cast<int>(p.reps.size()) >= min_reps;
    if (!in_budget && (enough || n >= 10 * min_reps)) break;
    const std::string name = label + " repetition " + std::to_string(n);
    ScopedSpan span(spans, name);
    const std::vector<Isolated> rs = run_isolated_all(bodies, kRepTimeoutS);
    p.attempted += static_cast<int>(w.cells.size());
    std::vector<std::optional<RepResult>> parts(rs.size());
    for (int k = 0; k < shards; ++k) {
      if (rs[k].ok) {
        parts[k] = parse_repetition(rs[k].output);
        continue;
      }
      p.failed += static_cast<int>(std::count(owner.begin(), owner.end(), k));
      p.problems.push_back(name + (shards > 1 ? " part " + std::to_string(k)
                                              : std::string()) +
                           " died: " + rs[k].error);
    }
    if (std::none_of(parts.begin(), parts.end(),
                     [](const auto& part) { return part.has_value(); })) {
      continue;
    }
    RepResult rep =
        shards > 1 ? merge_shards(parts, owner) : std::move(*parts.front());
    p.failed += rep.failed;
    p.check_failures += rep.check_failures;
    for (const std::string& why : rep.problems) {
      p.problems.push_back(name + ": " + why);
    }
    spans.absorb(std::move(rep.spans), span.id());
    p.reps.push_back(std::move(rep));
  }
  return p;
}

void merge_into(Phase& total, const Phase& p) {
  total.attempted += p.attempted;
  total.failed += p.failed;
  total.check_failures += p.check_failures;
  total.problems.insert(total.problems.end(), p.problems.begin(),
                        p.problems.end());
}

// Every completed repetition must produce the same result bytes cell by
// cell; the reference for a cell is its first non-empty digest.  Returns
// the number of cells that disagree (each counts as failed).
int check_digests(const std::vector<const RepResult*>& reps,
                  std::vector<std::string>& problems) {
  std::vector<std::string> ref;
  for (const RepResult* r : reps) {
    if (ref.size() < r->digests.size()) ref.resize(r->digests.size());
    for (std::size_t i = 0; i < r->digests.size(); ++i) {
      if (ref[i].empty()) ref[i] = r->digests[i];
    }
  }
  int mismatched = 0;
  for (std::size_t k = 0; k < reps.size(); ++k) {
    for (std::size_t i = 0; i < reps[k]->digests.size(); ++i) {
      const std::string& d = reps[k]->digests[i];
      if (!d.empty() && d != ref[i]) {
        ++mismatched;
        problems.push_back("cell " + std::to_string(i) +
                           " result digest differs between repetitions (" + d +
                           " vs " + ref[i] + ")");
      }
    }
  }
  return mismatched;
}

// Wall times are read at their lower quartile over repetitions.  The
// simulation is deterministic, so the only run-to-run variance is the
// host's: other tenants' contention, which only ever adds time.  On a
// shared 4-core VM, same-seed runs spread 24% between their median
// repetitions and about 5% between their lower quartiles.
constexpr double kWallQuantile = 0.25;

// paper-grid's serial passes time each cell in one of several processes
// at once, each on a core whose speed flips between two states for
// seconds at a time.  There a cell's lower quartile reads whichever state
// its few fast samples caught, and five seeds spread 14-18%; its median
// over the passes spread 3-5%.
constexpr double kPassQuantile = 0.5;

// Each cell's wall at quantile `q` over the repetitions that completed it.
std::vector<double> per_cell_walls(const std::vector<RepResult>& reps,
                                   double q) {
  std::vector<std::vector<double>> by_cell;
  for (const RepResult& r : reps) {
    if (by_cell.size() < r.cell_walls.size()) by_cell.resize(r.cell_walls.size());
    for (std::size_t i = 0; i < r.cell_walls.size(); ++i) {
      if (i < r.digests.size() && !r.digests[i].empty()) {
        by_cell[i].push_back(r.cell_walls[i]);
      }
    }
  }
  std::vector<double> out;
  for (const std::vector<double>& v : by_cell) {
    if (!v.empty()) out.push_back(quantile(v, q));
  }
  return out;
}

// The repetitions that completed the most cells.  A sweep that throws
// returns no results, so its repetition must neither time the batch nor
// report its outcomes or counts; its cells are already counted as failed.
std::vector<RepResult> most_complete(std::vector<RepResult> reps) {
  double most = 0.0;
  for (const RepResult& r : reps) most = std::max(most, r.simulated_s);
  std::erase_if(reps, [&](const RepResult& r) { return r.simulated_s < most; });
  return reps;
}

std::vector<double> walls(const std::vector<RepResult>& reps) {
  std::vector<double> v;
  for (const RepResult& r : reps) v.push_back(r.wall_s);
  return v;
}

// --- set-up -----------------------------------------------------------------

struct Setup {
  std::vector<SetupTimes> samples;
  Workload workload;
};

// Set-up is timed in fresh processes forked before this one does any of
// it, then once more here; this process keeps the loaded workload.
Setup set_up(const Options& o, SpanLog& spans) {
  Setup s;
  for (int i = 0; i < kSetupProbes; ++i) {
    ScopedSpan span(spans, "setup probe " + std::to_string(i));
    const Isolated r = run_isolated_all(
        {[&] {
          SetupTimes t;
          SpanLog probe_spans;
          (void)load_workload(o.workload, o.seed, o.load, t, probe_spans);
          std::ostringstream os;
          os.precision(17);
          os << t.spec_s << ' ' << t.tables_s << ' ' << t.traces_s << ' '
             << t.total_s;
          return os.str();
        }},
        kRepTimeoutS).front();
    if (!r.ok) throw std::runtime_error("set-up failed: " + r.error);
    SetupTimes t;
    std::istringstream in(r.output);
    in >> t.spec_s >> t.tables_s >> t.traces_s >> t.total_s;
    s.samples.push_back(t);
  }
  SetupTimes t;
  s.workload = load_workload(o.workload, o.seed, o.load, t, spans);
  s.samples.push_back(t);
  return s;
}

double median_of(const std::vector<SetupTimes>& v, double SetupTimes::*field) {
  std::vector<double> x;
  for (const SetupTimes& t : v) x.push_back(t.*field);
  return median(x);
}

// --- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           const std::string& note = "") {
    std::cout << "  " << name << " = " << value << ' ' << unit
              << (note.empty() ? "" : "  (" + note + ")") << '\n';
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  // A line for the reader that is not a metric of BENCHMARK.json.
  static void note(const std::string& line) {
    std::cout << "  " << line << '\n';
  }

  // The result line: the last line of standard output.
  void finish(bool correct, int attempted, int failed) const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : metrics_) {
      os << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": "
         << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
         << m.unit << "\"}";
      first = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
  }

 private:
  std::vector<Metric> metrics_;
};

std::string fmt(double v, int precision = 4) {
  std::ostringstream os;
  os.precision(precision);
  os << v;
  return os.str();
}

void print_problems(const std::vector<std::string>& problems) {
  for (const std::string& p : problems) std::cout << "  problem: " << p << '\n';
}

void write_spans(const Options& o, const std::string& stamp,
                 const SpanLog& spans) {
  const std::string dir = o.load.root + "/.perfbench_out";
  ::mkdir(dir.c_str(), 0755);
  const std::string path = dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0") + ".json";
  std::ofstream out(path);
  spans.write_chrome_trace(out, stamp);
  std::cout << "  spans: " << path << '\n';
}

// --- the timed run ----------------------------------------------------------

int run_timed(const Options& o) {
  SpanLog spans;
  Setup setup = set_up(o, spans);
  const Workload& w = setup.workload;
  const std::string stamp = machine_stamp(o, w);
  std::cout << "perfbench " << w.name << " seed " << o.seed << ": "
            << w.cells.size() << " cells, " << w.simulated_s
            << " simulated s per batch, " << w.threads << " thread(s)\n";

  Phase total;
  Phase timed;
  const std::int64_t start = now_ns();
  const auto left = [&] {
    return o.seconds - static_cast<double>(now_ns() - start) * 1e-9;
  };
  // paper-grid: serial reference passes, which also time each cell,
  // alternate with threaded repetitions over the whole run, so that a
  // burst of host contention reaches few of a cell's samples.  A pass runs
  // in one process per sweep thread, so it takes about as long as the
  // threaded sweep, and its cells run beside as many others as in the
  // sweep.
  std::vector<RepResult> serial;
  if (w.kind == Kind::kPaperGrid) {
    RepOptions ro;
    ro.serial_reference = true;
    ro.shards = w.threads;
    for (int k = 0; left() > 0.0 || k < kMinSerialPasses; ++k) {
      const std::string round = "round " + std::to_string(k) + " ";
      Phase p = run_phase(w, ro, 0.0, 1, round + "serial", spans);
      merge_into(total, p);
      for (RepResult& r : p.reps) serial.push_back(std::move(r));
      Phase t = run_phase(w, RepOptions{}, 0.0, 1, round + "timed", spans);
      merge_into(timed, t);
      for (RepResult& r : t.reps) timed.reps.push_back(std::move(r));
    }
  }
  const int missing = 2 - static_cast<int>(timed.reps.size());
  Phase rest = run_phase(w, RepOptions{}, left(), missing, "timed", spans);
  merge_into(timed, rest);
  for (RepResult& r : rest.reps) timed.reps.push_back(std::move(r));
  merge_into(total, timed);
  if (timed.reps.empty()) {
    print_problems(total.problems);
    std::cerr << "perfbench: no repetition completed\n";
    return 1;
  }

  std::vector<const RepResult*> all;
  for (const RepResult& r : serial) all.push_back(&r);
  for (const RepResult& r : timed.reps) all.push_back(&r);
  const int mismatched = check_digests(all, total.problems);
  total.failed += mismatched;
  total.check_failures += mismatched;
  timed.reps = most_complete(std::move(timed.reps));

  std::vector<double> rss;
  for (const RepResult& r : timed.reps) rss.push_back(r.peak_rss_mb);
  const double rep_wall = quantile(walls(timed.reps), kWallQuantile);
  double batch_simulated_s = 0.0;  // of the cells that completed
  for (const RepResult& r : timed.reps) {
    batch_simulated_s = std::max(batch_simulated_s, r.simulated_s);
  }
  // paper-grid's threaded sweep does not expose its cells, so its cells
  // are timed in the serial passes.
  const bool from_passes = w.kind == Kind::kPaperGrid;
  const std::vector<double> cell_walls =
      from_passes ? per_cell_walls(serial, kPassQuantile)
                  : per_cell_walls(timed.reps, kWallQuantile);
  const Tail tail = tail_of(cell_walls);
  const std::size_t cell_reps = from_passes ? serial.size() : timed.reps.size();
  const RepResult& first = timed.reps.front();
  std::vector<double> setup_total;
  for (const SetupTimes& t : setup.samples) setup_total.push_back(t.total_s);
  const double failed_frac =
      static_cast<double>(total.failed) / std::max(1, total.attempted);

  std::cout << "end-to-end metrics (" << timed.reps.size()
            << " timed repetitions):\n";
  Report report;
  report.add("sim_s_per_s", batch_simulated_s / rep_wall, "s/s",
             "batch over its lower-quartile wall of " +
                 std::to_string(timed.reps.size()) + " repetitions");
  const std::string per_cell =
      std::string(" cells, each its ") +
      (from_passes ? "median" : "lower quartile") + " of " +
      std::to_string(cell_reps) + (from_passes ? " serial passes" : " runs");
  report.add("cell_wall_p50_s", median(cell_walls), "s",
             std::to_string(cell_walls.size()) + per_cell);
  report.add("cell_wall_tail_s", tail.value, "s",
             "p" + fmt(tail.percentile) + " of " +
                 std::to_string(tail.samples) + per_cell +
                 (tail.samples <= 10 ? "; no percentile has 10 cells beyond "
                                       "it, so this is the maximum"
                                     : ""));
  report.add("setup_s", median(setup_total), "s",
             "median of " + std::to_string(setup_total.size()) +
                 " fresh-process set-ups");
  report.add("peak_rss_mb", median(rss), "MB");
  report.add("cells_ok_frac", 1.0 - failed_frac, "fraction",
             "1 - cells_failed_frac");
  report.add("utilization", first.utilization, "fraction");
  Report::note("cells_failed_frac = " + fmt(failed_frac) + " fraction (" +
               std::to_string(total.failed) + " of " +
               std::to_string(total.attempted) + " cells attempted)");
  // Simulated outcomes: exact for a seed, but they move with the seed by
  // more than any bound a timing may have, so BENCHMARK.json does not
  // bound them.  The digest check pins them within a run.
  const std::string over = w.outcome_over_sprout ? "sprout" : "flow";
  Report::note(over + "_tput_kbps = " + fmt(first.outcome_tput_kbps, 17) +
               " kbit/s");
  Report::note(over + "_delay95_ms = " + fmt(first.outcome_delay95_ms, 17) +
               " ms");
  std::string rep_walls;
  for (const double x : walls(timed.reps)) {
    rep_walls += ' ';
    rep_walls += fmt(x);
  }
  Report::note("repetition walls (s):" + rep_walls);
  print_problems(total.problems);
  std::cout << "machine: " << stamp << '\n';
  write_spans(o, stamp, spans);
  report.finish(total.check_failures == 0, total.attempted, total.failed);
  return 0;
}

// --- the traced run ---------------------------------------------------------

double reg(const RepResult& r, const std::string& name) {
  const auto it = r.registry.find(name);
  return it == r.registry.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int run_traced(const Options& o) {
  SpanLog spans;
  Setup setup = set_up(o, spans);
  const Workload& w = setup.workload;
  const std::string stamp = machine_stamp(o, w);
  std::cout << "perfbench " << w.name << " seed " << o.seed
            << " (traced run)\n";

  Phase total;
  const double third = o.seconds / 3.0;
  Phase plain = run_phase(w, RepOptions{}, third, 1, "untraced", spans);
  merge_into(total, plain);
  RepOptions traced_opts;
  traced_opts.traced = true;
  Phase traced = run_phase(w, traced_opts, third, 2, "traced", spans);
  merge_into(total, traced);
  RepOptions flip_opts;
  flip_opts.flip_recorder = true;
  Phase flipped = run_phase(w, flip_opts, third, 1, "recorder-flipped", spans);
  merge_into(total, flipped);
  std::vector<RepResult> serial;
  if (w.kind == Kind::kPaperGrid) {
    RepOptions ro;
    ro.serial_reference = true;
    Phase p = run_phase(w, ro, 0.0, 1, "serial", spans);
    merge_into(total, p);
    serial = std::move(p.reps);
  }
  if (plain.reps.empty() || traced.reps.empty() || flipped.reps.empty()) {
    print_problems(total.problems);
    std::cerr << "perfbench: a traced-run phase completed no repetition\n";
    return 1;
  }

  // Instrumentation must not perturb results: untraced, traced and serial
  // repetitions all produce the same bytes.
  std::vector<const RepResult*> same;
  for (const auto* phase : {&plain.reps, &traced.reps, &serial}) {
    for (const RepResult& r : *phase) same.push_back(&r);
  }
  const int mismatched = check_digests(same, total.problems);
  total.failed += mismatched;
  total.check_failures += mismatched;
  for (Phase* phase : {&plain, &traced, &flipped}) {
    phase->reps = most_complete(std::move(phase->reps));
  }
  // Counts repeat exactly for the same seed.
  const RepResult& t = traced.reps.front();
  for (std::size_t k = 1; k < traced.reps.size(); ++k) {
    if (traced.reps[k].registry != t.registry) {
      total.problems.push_back("traced repetition " + std::to_string(k) +
                               " read different obs counts than repetition 0");
      ++total.check_failures;
    }
  }

  ReplayShape shape;
  shape.batch_size =
      std::max(2, static_cast<int>(reg(t, "batcher.max_group_size")));
  if (w.kind == Kind::kTower) {
    shape.tower = w.cells.front().topology.tower_spec;
    shape.tower_users = static_cast<int>(reg(t, "tower.attached_users.peak"));
  } else {
    // No tower here: replay the tower workload's cell at its initial
    // population.
    SetupTimes ignored;
    SpanLog ignored_spans;
    LoadOptions lo = o.load;
    lo.inject_bad_cell = false;
    shape.tower = load_workload("tower", o.seed, lo, ignored, ignored_spans)
                      .cells.front()
                      .topology.tower_spec;
    shape.tower_users = shape.tower.num_users;
  }
  shape.tower_users = std::max(1, shape.tower_users);
  const ReplayCosts c = replay_layers(w, shape, spans);

  const double untraced_wall = quantile(walls(plain.reps), kWallQuantile);
  const double traced_wall = quantile(walls(traced.reps), kWallQuantile);
  const double flipped_wall = quantile(walls(flipped.reps), kWallQuantile);
  const bool recorder_on = !w.cells.empty() && w.cells.front().record_timeline;
  const double on_wall = recorder_on ? untraced_wall : flipped_wall;
  const double off_wall = recorder_on ? flipped_wall : untraced_wall;
  // Busy thread-time available to the layers.
  const double wall_ns = untraced_wall * 1e9 * w.threads;

  const double horizon = sprout::SproutParams{}.forecast_horizon_ticks;
  const double forecast_calls =
      reg(t, "forecast.single") + reg(t, "forecast.batched_flows");
  const double forecast_evolves = horizon * forecast_calls;
  const double all_evolves = reg(t, "filter.evolve.banded") +
                             reg(t, "filter.evolve.batched_flows") +
                             reg(t, "filter.evolve.dense");
  const double tick_evolves = all_evolves - forecast_evolves;
  const double batched = reg(t, "batcher.batched_flows");
  // The split must reconcile with the filter's own counters: a forecast's
  // private evolves are single banded passes, and with no batched
  // forecasts every batched evolve is one the tick batcher merged.
  if (forecast_evolves > reg(t, "filter.evolve.banded") ||
      (reg(t, "forecast.batched_flows") == 0.0 &&
       batched != reg(t, "filter.evolve.batched_flows"))) {
    total.problems.push_back(
        "core.forecast.evolves / core.filter.tick_evolves do not reconcile "
        "with filter.evolve.*");
    ++total.check_failures;
  }
  const double observes = reg(t, "filter.observe");
  const double axpy =
      reg(t, "kernels.axpy.avx2") + reg(t, "kernels.axpy.scalar");
  const double slots = reg(t, "tower.pf.slots_served");
  const auto delivered = static_cast<double>(t.packets_delivered);
  const double events = delivered * c.cellsim_events_per_packet;

  const double core_ns = forecast_calls * c.forecast_p50 +
                         (tick_evolves - batched) * c.evolve_p50 +
                         batched * c.evolve_batch_per_flow_p50 +
                         observes * c.observe_p50;
  const double link_ns =
      slots * c.tower_step_ns +
      delivered * (c.cellsim_ns_per_packet -
                   c.cellsim_events_per_packet * c.event_ns);
  const double sim_ns = events * c.event_ns;
  const double core_share = ratio(core_ns, wall_ns);
  const double link_share = ratio(link_ns, wall_ns);
  const double sim_share = ratio(sim_ns, wall_ns);

  // Summed cell walls over threads x sweep wall: paper-grid's cells from
  // its serial pass against the threaded sweep; elsewhere one repetition's
  // cells against that repetition's own wall.
  const RepResult& cells_rep =
      serial.empty() ? plain.reps.front() : serial.front();
  double busy = 0.0;
  for (const double cw : cells_rep.cell_walls) busy += cw;
  const double sweep_wall =
      serial.empty() ? plain.reps.front().wall_s : untraced_wall;

  std::cout << "per-layer metrics (" << traced.reps.size()
            << " traced repetitions; *.est_share are estimates: count x "
               "replayed cost / untraced thread time):\n";
  Report report;
  report.add("core.forecast.calls", forecast_calls, "count");
  report.add("core.forecast.evolves", forecast_evolves, "count",
             fmt(horizon) + " horizon ticks x calls");
  report.add("core.filter.tick_evolves", tick_evolves, "count");
  report.add("core.filter.observe.calls", observes, "count");
  report.add("core.batcher.batched_share", ratio(batched, tick_evolves),
             "fraction");
  report.add("core.forecast.batched_share",
             ratio(reg(t, "forecast.batched_flows"), forecast_calls),
             "fraction");
  report.add("core.filter.censored_share",
             ratio(reg(t, "filter.observe.censored"), observes), "fraction");
  report.add("core.forecast.ns.p50", c.forecast_p50, "ns");
  report.add("core.forecast.ns.p99", c.forecast_p99, "ns");
  report.add("core.filter.evolve.ns.p50", c.evolve_p50, "ns");
  report.add("core.filter.evolve.ns.p99", c.evolve_p99, "ns");
  report.add("core.filter.evolve_batch.ns_per_flow.p50",
             c.evolve_batch_per_flow_p50, "ns",
             "batch of " + std::to_string(shape.batch_size));
  report.add("core.filter.evolve_batch.ns_per_flow.p99",
             c.evolve_batch_per_flow_p99, "ns");
  report.add("core.filter.observe.ns.p50", c.observe_p50, "ns");
  report.add("core.filter.observe.ns.p99", c.observe_p99, "ns");
  report.add("core.est_share", core_share, "fraction");
  report.add("util.kernels.axpy.calls", axpy, "count");
  report.add("util.kernels.axpy_per_evolve",
             ratio(axpy, reg(t, "filter.evolve.banded")), "count");
  report.add("link.tower.slots", slots, "count");
  report.add("link.tower.step.ns", c.tower_step_ns, "ns",
             std::to_string(shape.tower_users) + " users attached");
  report.add("synth.channel_advance.ns", c.channel_advance_ns, "ns");
  report.add("link.cellsim.ns_per_packet", c.cellsim_ns_per_packet, "ns",
             fmt(c.cellsim_events_per_packet) + " events per packet");
  report.add("link.packets_delivered", delivered, "count");
  report.add("link.drops", static_cast<double>(t.drops), "count");
  report.add("link.est_share", link_share, "fraction",
             "event-loop cost moved to sim");
  report.add("sim.event.ns", c.event_ns, "ns");
  report.add("sim.wall_ns_per_packet", ratio(untraced_wall * 1e9, delivered),
             "ns");
  report.add("sim.est_share", sim_share, "fraction",
             fmt(events) + " events estimated");
  report.add("metrics.hist_add.ns", c.hist_add_ns, "ns");
  report.add("metrics.recorder.ns", c.recorder_ns, "ns");
  report.add("metrics.recorder.on_cost_frac", ratio(on_wall, off_wall) - 1.0,
             "fraction");
  report.add("runner.sweep.busy_frac", ratio(busy, w.threads * sweep_wall),
             "fraction");
  report.add("runner.cache.traces.hit_ratio",
             ratio(reg(t, "cache.traces.hits"),
                   reg(t, "cache.traces.hits") + reg(t, "cache.traces.misses")),
             "fraction");
  report.add("runner.cache.tables.hit_ratio",
             ratio(reg(t, "cache.forecast_tables.hits"),
                   reg(t, "cache.forecast_tables.hits") +
                       reg(t, "cache.forecast_tables.misses")),
             "fraction");
  report.add("spec.load_s", median_of(setup.samples, &SetupTimes::spec_s), "s");
  report.add("trace.generate_s",
             median_of(setup.samples, &SetupTimes::traces_s), "s");
  report.add("residual_share", 1.0 - core_share - link_share - sim_share,
             "fraction");
  report.add("obs.overhead_frac", ratio(traced_wall, untraced_wall) - 1.0,
             "fraction");
  Report::note("reconcile: filter.evolve.banded " +
               fmt(reg(t, "filter.evolve.banded"), 17) +
               " + filter.evolve.batched_flows " +
               fmt(reg(t, "filter.evolve.batched_flows"), 17) +
               " + filter.evolve.dense " +
               fmt(reg(t, "filter.evolve.dense"), 17) + " = " +
               fmt(all_evolves, 17) + " = core.forecast.evolves " +
               fmt(forecast_evolves, 17) + " + core.filter.tick_evolves " +
               fmt(tick_evolves, 17));
  Report::note("cells_failed_frac = " +
               fmt(ratio(total.failed, std::max(1, total.attempted))) +
               " fraction (" + std::to_string(total.failed) + " of " +
               std::to_string(total.attempted) + " cells attempted)");
  print_problems(total.problems);
  std::cout << "machine: " << stamp << '\n';
  write_spans(o, stamp, spans);
  report.finish(total.check_failures == 0, total.attempted, total.failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options o = perfbench::parse_args(argc, argv);
  try {
    return o.trace ? perfbench::run_traced(o) : perfbench::run_timed(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
