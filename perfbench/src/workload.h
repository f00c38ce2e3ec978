// The benchmark's three workloads: loading and set-up, one repetition of
// the fixed-size batch, and the checks on its outputs.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "runner/scenario.h"
#include "spans.h"
#include "trace/trace.h"

namespace perfbench {

enum class Kind { kTower, kPaperGrid, kTcpShared };

struct Workload {
  std::string name;
  Kind kind = Kind::kTower;
  int threads = 1;
  std::uint64_t seed = 0;
  // The batch one repetition runs.  paper-grid cells keep their spec
  // seeds; SweepRunner derives each cell's seed from `seed`.  The other
  // workloads' cells carry their derived seeds already.
  std::vector<sprout::ScenarioSpec> cells;
  double simulated_s = 0.0;  // summed run time of the batch
  // Outcome metrics read Sprout flows where the workload has them, and
  // every flow otherwise.
  bool outcome_over_sprout = false;
  // The preset traces materialised during set-up, the first cell's
  // forward direction first (empty for the tower, whose channels are live
  // processes).
  std::vector<sprout::Trace> traces;
};

struct SetupTimes {
  double spec_s = 0.0;    // spec file load, expansion and seeding
  double tables_s = 0.0;  // TransitionMatrixCache + ForecastTableCache gets
  double traces_s = 0.0;  // preset trace generation
  double total_s = 0.0;
};

[[nodiscard]] bool known_workload(const std::string& name);

struct LoadOptions {
  std::string root = ".";  // checkout root; specs live in perfbench/specs
  bool short_run = false;  // 10 s cells, for the self-test
  bool inject_bad_cell = false;  // append a spec run_scenario rejects
};

// Loads the workload and does the one-time work of a fresh process: the
// spec load and expansion, the process-wide kernel and table caches, and
// the workload's traces.  Throws on an unreadable or invalid spec.
[[nodiscard]] Workload load_workload(const std::string& name,
                                     std::uint64_t seed,
                                     const LoadOptions& options,
                                     SetupTimes& times, SpanLog& spans);

struct RepOptions {
  bool traced = false;           // obs::set_enabled(true), snapshot counters
  bool flip_recorder = false;    // invert every cell's record_timeline
  bool serial_reference = false; // paper-grid: one cell per serial sweep call
  // Split the batch into `shards` processes by link (serial_reference
  // only); this one runs the cells that cell_shards gives `shard`.
  int shards = 1;
  int shard = 0;
};

// Splits a batch's cells into `shards` parts by link, so that every cell
// of a link lands in the same part: the shard of each cell.
[[nodiscard]] std::vector<int> cell_shards(const Workload& w, int shards);

// One repetition's outcome, as sent back from its child process.
struct RepResult {
  double wall_s = 0.0;
  double simulated_s = 0.0;  // of the cells that completed
  double peak_rss_mb = 0.0;
  int cells = 0;
  int failed = 0;  // cells that threw, or whose output failed a check
  int check_failures = 0;  // of `failed`, the cells that failed a check
  std::vector<double> cell_walls;    // per cell, when cells run one by one
  std::vector<std::string> digests;  // per cell; empty for a failed cell
  double outcome_tput_kbps = 0.0;
  double outcome_delay95_ms = 0.0;
  double utilization = 0.0;
  std::int64_t packets_delivered = 0;
  std::int64_t drops = 0;
  std::vector<std::string> problems;
  std::map<std::string, double> registry;  // traced repetitions only
  std::vector<Span> spans;
};

// Runs the batch once, in the calling process, and serializes the result
// for parse_repetition.
[[nodiscard]] std::string run_repetition(const Workload& w,
                                         const RepOptions& options);
[[nodiscard]] RepResult parse_repetition(const std::string& text);

// Joins the repetitions of a batch's shards into the batch's repetition;
// parts[k] ran the cells `shards` gives k, and a missing part's cells have
// no digest.
[[nodiscard]] RepResult merge_shards(
    const std::vector<std::optional<RepResult>>& parts,
    const std::vector<int>& shards);

}  // namespace perfbench
