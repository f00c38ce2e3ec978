// sweep_orchestrate — fault-tolerant sweep execution with checkpoint/resume.
//
// Forks worker processes over a grid and hands out cells by work-stealing
// (longest-first by estimated_cost); every completed cell is appended to a
// per-worker journal in --journal-dir, so `kill -9` of the whole job tree
// costs at most the records being written: re-running the same command
// resumes from the last completed cell.  A cell that crashes its worker is
// retried with doubling backoff and quarantined on a poison list after
// --max-attempts failures; --cell-timeout reclaims cells from hung workers.
//
//   sweep_orchestrate run    --spec specs/tower_smoke.json
//                            --journal-dir j/ --out sweep.json --workers 4
//   sweep_orchestrate status --spec specs/tower_smoke.json --journal-dir j/
//   sweep_orchestrate export --spec specs/tower_smoke.json --journal-dir j/
//                            --out-prefix j/shard_
//
// `status` reports journal coverage without running anything; `export`
// replays each journal into an ordinary shard JSON file that `sweep_shard
// merge` accepts — the bridge that keeps
//
//     orchestrated (killed + resumed) == sweep_shard merge == serial
//
// a byte-level invariant (the orchestrate_roundtrip ctest and the CI
// orchestrate-smoke job diff exactly that).
//
// Telemetry: --metrics-out streams a JSONL event feed (header, per-cell
// wall/RSS, retries, poisons, throttled progress, worker + coordinator
// registry snapshots) and stamps each journaled result with a "runtime"
// field; --trace-out writes a Chrome trace (chrome://tracing /
// ui.perfetto.dev) with one lane per worker slot.  `obs_report` renders
// and validates both.  --quiet suppresses the stderr progress/ETA line
// only; it does not affect telemetry files.
//
// Fault hooks for tests and CI only: --halt-after N (SIGKILL every worker
// after N completions — a simulated kill -9 of the job), --crash-cell
// I[:N] (worker _exit(70)s on cell I, first N attempts; no :N = every
// attempt, the poison path), --hang-cell I[:N] (worker hangs, exercising
// --cell-timeout).
//
// Exit codes: 0 complete, 1 error, 2 usage, 3 poisoned cells (sweep
// incomplete; journals keep the finished cells), 4 halted by --halt-after.
#include <climits>
#include <iostream>
#include <string>
#include <vector>

#include "runner/orchestrator.h"
#include "spec/builtin.h"
#include "spec/grid.h"
#include "util/file_io.h"
#include "util/table.h"

namespace {

using namespace sprout;

// A bad flag value: reported path-style ("--workers: must be ...") and
// exited 2, distinct from runtime failures (exit 1).
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

// Strict integer parse: the whole token must be the number.  std::atoi
// would read "4x" as 4 and overflow silently — exactly the class of bug
// the --threads/--workers guards exist to catch.
long parse_long_strict(const std::string& flag, const std::string& text) {
  std::size_t pos = 0;
  long v = 0;
  try {
    v = std::stol(text, &pos);
  } catch (const std::exception&) {
    throw UsageError(flag + ": must be an integer, got \"" + text + "\"");
  }
  if (pos != text.size()) {
    throw UsageError(flag + ": must be an integer, got \"" + text + "\"");
  }
  return v;
}

int parse_positive_int(const std::string& flag, const std::string& text) {
  const long v = parse_long_strict(flag, text);
  if (v < 1 || v > INT_MAX) {
    throw UsageError(flag + ": must be a positive integer, got \"" + text +
                     "\"");
  }
  return static_cast<int>(v);
}

double parse_nonneg_double(const std::string& flag, const std::string& text) {
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(text, &pos);
  } catch (const std::exception&) {
    throw UsageError(flag + ": must be a number, got \"" + text + "\"");
  }
  if (pos != text.size() || !(v >= 0.0)) {
    throw UsageError(flag + ": must be a number >= 0, got \"" + text + "\"");
  }
  return v;
}

// "I" (every attempt) or "I:N" (first N attempts) for the fault hooks.
std::pair<std::size_t, int> parse_fault(const std::string& flag,
                                        const std::string& text) {
  const std::size_t colon = text.find(':');
  const std::string index_part = text.substr(0, colon);
  const long index = parse_long_strict(flag, index_part);
  if (index < 0) {
    throw UsageError(flag + ": cell index must be >= 0, got \"" + text +
                     "\"");
  }
  int n = -1;
  if (colon != std::string::npos) {
    n = parse_positive_int(flag, text.substr(colon + 1));
  }
  return {static_cast<std::size_t>(index), n};
}

struct GridSource {
  std::string grid_name;  // --grid
  std::string spec_path;  // --spec
  int seconds = 20;
  bool seconds_given = false;
  bool timeline = false;  // --timeline: flight-record every cell
  std::optional<std::uint64_t> base_seed;
};

struct ResolvedGrid {
  std::string label;
  SweepSpec sweep;
};

ResolvedGrid resolve_grid(const GridSource& source) {
  ResolvedGrid grid;
  if (!source.spec_path.empty()) {
    if (source.seconds_given) {
      throw std::invalid_argument(
          "--seconds shapes compiled grids; a spec file carries its own "
          "durations");
    }
    if (source.base_seed.has_value()) {
      throw std::invalid_argument(
          "--base-seed shapes compiled grids; set base_seed in the spec "
          "file instead");
    }
    spec::ExperimentSpec experiment =
        spec::parse_experiment_file(source.spec_path);
    grid.label = experiment.name.empty() ? source.spec_path : experiment.name;
    grid.sweep = std::move(experiment.sweep);
  } else {
    spec::BuiltinGridOptions options;
    options.seconds = source.seconds;
    options.base_seed = source.base_seed;
    grid.label = source.grid_name;
    grid.sweep = spec::build_builtin_grid(source.grid_name, options);
  }
  // --timeline flight-records every cell.  record_timeline is excluded
  // from scenario fingerprints, so journals written with and without it
  // resume, export, and merge against the same grid.
  if (source.timeline) {
    for (ScenarioSpec& cell : grid.sweep.cells) cell.record_timeline = true;
  }
  return grid;
}

int usage() {
  std::cerr <<
      "usage:\n"
      "  sweep_orchestrate run    (--grid NAME | --spec FILE)"
      " --journal-dir DIR --out PATH\n"
      "                           [--workers W] [--max-attempts K]"
      " [--retry-backoff S]\n"
      "                           [--cell-timeout S] [--seconds N]"
      " [--base-seed S]\n"
      "                           [--poison-report PATH] [--quiet]"
      " [--timeline]\n"
      "                           [--metrics-out PATH] [--trace-out PATH]\n"
      "                           [--halt-after N] [--crash-cell I[:N]]"
      " [--hang-cell I[:N]]\n"
      "  sweep_orchestrate status (--grid NAME | --spec FILE)"
      " --journal-dir DIR\n"
      "  sweep_orchestrate export (--grid NAME | --spec FILE)"
      " --journal-dir DIR --out-prefix P\n"
      "exit codes: 0 complete, 1 error, 2 usage, 3 poisoned, 4 halted\n";
  return 2;
}

void write_poison_report(const std::string& path,
                         const std::vector<PoisonedCell>& poisoned) {
  write_file(path, [&](std::ostream& os) {
    os << "{\n  \"poisoned\": [";
    for (std::size_t i = 0; i < poisoned.size(); ++i) {
      os << (i == 0 ? "" : ",") << "\n    {\"index\": " << poisoned[i].index
         << ", \"attempts\": " << poisoned[i].attempts << ", \"error\": ";
      write_json_string(os, poisoned[i].last_error);
      os << "}";
    }
    os << "\n  ]\n}\n";
  });
}

int cmd_run(const GridSource& source, OrchestratorOptions options,
            const std::string& out_path, const std::string& poison_path) {
  const ResolvedGrid grid = resolve_grid(source);
  const OrchestrateOutcome outcome = orchestrate_sweep(grid.sweep, options);

  if (outcome.halted) {
    std::cerr << "sweep_orchestrate: halted after " << outcome.executed_cells
              << " cells (journals kept in " << options.journal_dir
              << "; re-run the same command to resume)\n";
    return 4;
  }
  if (!outcome.poisoned.empty()) {
    for (const PoisonedCell& cell : outcome.poisoned) {
      std::cerr << "sweep_orchestrate: cell " << cell.index
                << " poisoned after " << cell.attempts
                << " attempts: " << cell.last_error << "\n";
    }
    if (!poison_path.empty()) {
      write_poison_report(poison_path, outcome.poisoned);
      std::cerr << "sweep_orchestrate: poison report -> " << poison_path
                << "\n";
    }
    std::cerr << "sweep_orchestrate: sweep incomplete ("
              << outcome.poisoned.size() << " poisoned cells); completed "
              << "cells stay journaled in " << options.journal_dir << "\n";
    return 3;
  }

  write_file(out_path,
             [&](std::ostream& os) { write_sweep_json(os, outcome.merged); });
  std::cout << "orchestrated " << grid.label << ": "
            << outcome.merged.cells.size() << " cells ("
            << outcome.resumed_cells << " resumed, " << outcome.executed_cells
            << " executed) -> " << out_path << "\n";
  return 0;
}

int cmd_status(const GridSource& source, const std::string& journal_dir) {
  const ResolvedGrid grid = resolve_grid(source);
  const std::uint64_t fingerprint = sweep_fingerprint(grid.sweep);
  const std::size_t total = grid.sweep.cells.size();
  std::vector<bool> covered(total, false);
  TableWriter t({"Journal", "Cells", "Of", "Fingerprint", "State"});
  for (const std::string& path : list_journal_files(journal_dir)) {
    const JournalScan scan =
        read_journal_file(path, /*allow_truncated_tail=*/true);
    const bool foreign =
        scan.sweep_fingerprint != fingerprint || scan.total_cells != total;
    if (!foreign) {
      for (const JournalRecord& record : scan.records) {
        covered[record.index] = true;
      }
    }
    std::string state = foreign ? "FOREIGN GRID" : "ok";
    if (scan.dropped_bytes > 0) {
      state += " (+" + std::to_string(scan.dropped_bytes) +
               "B half-written tail)";
    }
    t.row()
        .cell(path)
        .cell(static_cast<std::int64_t>(scan.records.size()))
        .cell(static_cast<std::int64_t>(scan.total_cells))
        .cell(std::to_string(scan.sweep_fingerprint))
        .cell(state);
  }
  t.print(std::cout);
  std::size_t done = 0;
  for (const bool c : covered) done += c ? 1 : 0;
  std::cout << "grid " << grid.label << ": " << done << "/" << total
            << " cells journaled, " << (total - done) << " remaining\n";
  return 0;
}

int cmd_export(const GridSource& source, const std::string& journal_dir,
               const std::string& prefix) {
  const ResolvedGrid grid = resolve_grid(source);
  const std::uint64_t fingerprint = sweep_fingerprint(grid.sweep);
  std::size_t exported = 0;
  for (const std::string& path : list_journal_files(journal_dir)) {
    // Strict scan: exporting a journal with a half-written tail would
    // silently bless a damaged file — recover via `run` first.
    const JournalScan scan =
        read_journal_file(path, /*allow_truncated_tail=*/false);
    if (scan.sweep_fingerprint != fingerprint ||
        scan.total_cells != grid.sweep.cells.size()) {
      throw std::runtime_error(path + ": journal is not from this grid");
    }
    const ShardResult shard = shard_from_journal(scan);
    const std::string out = prefix + std::to_string(scan.journal_id) + ".json";
    write_file(out, [&](std::ostream& os) { write_shard_json(os, shard); });
    std::cout << path << " -> " << out << " (" << shard.cell_indices.size()
              << " cells)\n";
    ++exported;
  }
  if (exported == 0) {
    throw std::runtime_error("no journals found in " + journal_dir);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];

  GridSource source;
  OrchestratorOptions options;
  std::string out_path;
  std::string out_prefix;
  std::string poison_path;

  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw UsageError(arg + ": needs a value");
        return argv[++i];
      };
      if (arg == "--grid") source.grid_name = value();
      else if (arg == "--spec") source.spec_path = value();
      else if (arg == "--seconds") {
        source.seconds = parse_positive_int(arg, value());
        source.seconds_given = true;
      }
      else if (arg == "--base-seed") source.base_seed = std::stoull(value());
      else if (arg == "--journal-dir") options.journal_dir = value();
      else if (arg == "--out") out_path = value();
      else if (arg == "--out-prefix") out_prefix = value();
      else if (arg == "--poison-report") poison_path = value();
      else if (arg == "--workers") {
        // The spec_lint --threads guard, applied here: a zero or negative
        // worker count must die loudly, not fork zero workers.
        options.workers = parse_positive_int(arg, value());
      }
      else if (arg == "--max-attempts") {
        options.max_attempts = parse_positive_int(arg, value());
      }
      else if (arg == "--retry-backoff") {
        options.retry_backoff_s = parse_nonneg_double(arg, value());
      }
      else if (arg == "--cell-timeout") {
        options.cell_timeout_s = parse_nonneg_double(arg, value());
      }
      else if (arg == "--quiet") options.progress = false;
      else if (arg == "--timeline") source.timeline = true;
      else if (arg == "--metrics-out") {
        // Telemetry implies runtime stamping: every journaled cell gains a
        // "runtime" field (wall seconds, peak RSS, attempt).  Strip it with
        // `obs_report strip-runtime` before byte-diffing against a plain run.
        options.metrics_out = value();
        options.record_runtime = true;
      }
      else if (arg == "--trace-out") options.trace_out = value();
      else if (arg == "--halt-after") {
        options.halt_after_cells =
            static_cast<std::size_t>(parse_positive_int(arg, value()));
      }
      else if (arg == "--crash-cell") {
        options.crash_cells.push_back(parse_fault(arg, value()));
      }
      else if (arg == "--hang-cell") {
        options.hang_cells.push_back(parse_fault(arg, value()));
      }
      else return usage();
    }
    if (!source.grid_name.empty() && !source.spec_path.empty()) {
      throw UsageError("--grid and --spec are mutually exclusive");
    }
    const bool have_grid =
        !source.grid_name.empty() || !source.spec_path.empty();
    if (!have_grid || options.journal_dir.empty()) return usage();

    if (command == "run") {
      if (out_path.empty()) return usage();
      return cmd_run(source, options, out_path, poison_path);
    }
    if (command == "status") {
      return cmd_status(source, options.journal_dir);
    }
    if (command == "export") {
      if (out_prefix.empty()) return usage();
      return cmd_export(source, options.journal_dir, out_prefix);
    }
    return usage();
  } catch (const UsageError& e) {
    std::cerr << "sweep_orchestrate: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "sweep_orchestrate: " << e.what() << "\n";
    return 1;
  }
}
