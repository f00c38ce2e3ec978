// sweep_shard — run and merge sharded scenario sweeps across OS processes.
//
// Each shard process runs a slice of a grid and writes a content-addressed
// JSON shard file; a merge process stitches the shards back into one sweep
// file, refusing overlaps, gaps, shards cut from a different grid, and
// shards cut by mixed partition strategies.  Because per-cell seeds are
// content-derived, the merged file is byte-identical to the file a single
// process writes for the whole grid — the ctest `shard_roundtrip` /
// `spec_roundtrip` targets and the CI shard/spec jobs diff exactly that.
//
// Grids come from two places: the compiled-in set (--grid NAME, see
// spec/builtin.h) or a declarative JSON experiment document (--spec FILE,
// see spec/grid.h) — the spec route needs no rebuild to define a new
// experiment, and `dump` writes any compiled grid as a spec file to start
// from:
//
//   sweep_shard list
//   sweep_shard list shard1.json shard2.json      (strategy per shard file)
//   sweep_shard run   --grid coexistence-smoke --shard 1/3 --out s1.json
//   sweep_shard run   --spec specs/coexistence_smoke.json --shard 1/3
//                     --strategy lpt --out s1.json
//   sweep_shard run   --grid coexistence-smoke --cells 0,2 --out s.json
//   sweep_shard run   --spec specs/coexistence_smoke.json --out full.json
//   sweep_shard merge --grid coexistence-smoke --out merged.json s*.json
//   sweep_shard dump  --grid mixed-duration --out mixed.spec.json
//
// Shared flags: --seconds N (cell duration scale for compiled grids,
// default 20), --base-seed S (content-derived per-cell seeds; compiled
// grids only — a spec file carries its own), --threads T (in-process
// pool), --strategy round-robin|lpt (how --shard I/N cuts the grid; a
// spec file's plan.strategy is the default).  Flags that shape the grid
// must agree across the run and merge invocations of one sweep; the sweep
// fingerprint turns any disagreement into a hard error instead of a
// silently different grid.  Mixing --shard strategies across one grid's
// shards is rejected at merge by the recorded partition stamps.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "runner/shard.h"
#include "spec/builtin.h"
#include "spec/grid.h"
#include "spec/plan.h"
#include "util/file_io.h"
#include "util/table.h"

namespace {

using namespace sprout;

// Where the grid comes from and how shards are cut from it.
struct GridSource {
  std::string grid_name;  // --grid
  std::string spec_path;  // --spec
  int seconds = 20;
  bool seconds_given = false;
  bool timeline = false;  // --timeline: flight-record every cell
  std::optional<std::uint64_t> base_seed;
  std::optional<spec::PartitionStrategy> strategy;  // --strategy
};

struct ResolvedGrid {
  std::string label;  // grid name or spec name/path, for messages
  spec::PartitionStrategy strategy = spec::PartitionStrategy::kRoundRobin;
  SweepSpec sweep;
};

ResolvedGrid resolve_grid(const GridSource& source) {
  ResolvedGrid grid;
  if (!source.spec_path.empty()) {
    // A spec file is self-contained; grid-shaping flags contradict it.
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
    grid.strategy = experiment.strategy;
    grid.sweep = std::move(experiment.sweep);
  } else {
    spec::BuiltinGridOptions options;
    options.seconds = source.seconds;
    options.base_seed = source.base_seed;
    grid.label = source.grid_name;
    grid.sweep = spec::build_builtin_grid(source.grid_name, options);
  }
  if (source.strategy.has_value()) grid.strategy = *source.strategy;
  // --timeline flight-records every cell.  record_timeline is excluded
  // from scenario fingerprints, so shards cut with and without it merge
  // and verify against the same grid.
  if (source.timeline) {
    for (ScenarioSpec& cell : grid.sweep.cells) cell.record_timeline = true;
  }
  return grid;
}

int usage() {
  std::cerr <<
      "usage:\n"
      "  sweep_shard list [--seconds N] [--spec FILE] [SHARD.json...]\n"
      "  sweep_shard run   (--grid NAME | --spec FILE) --out PATH\n"
      "                    [--shard I/N [--strategy round-robin|lpt] |"
      " --cells A,B,C]\n"
      "                    [--seconds N] [--base-seed S] [--threads T]"
      " [--timeline]\n"
      "  sweep_shard merge --out PATH [--grid NAME [--seconds N]"
      " [--base-seed S] | --spec FILE]\n"
      "                    SHARD.json...\n"
      "  sweep_shard dump  --grid NAME --out SPEC.json [--seconds N]"
      " [--base-seed S]\n";
  return 2;
}

// "I/N" (1-based shard number) -> 0-based indices of that shard's cells,
// cut by the resolved strategy.
std::vector<std::size_t> parse_shard(const std::string& arg,
                                     const ResolvedGrid& grid) {
  const std::size_t slash = arg.find('/');
  if (slash == std::string::npos) {
    throw std::invalid_argument("--shard wants I/N, got \"" + arg + "\"");
  }
  const int number = std::stoi(arg.substr(0, slash));
  const int count = std::stoi(arg.substr(slash + 1));
  return spec::plan_shard_indices(grid.sweep, grid.strategy, number - 1,
                                  count);
}

std::vector<std::size_t> parse_cells(const std::string& arg) {
  std::vector<std::size_t> cells;
  std::istringstream is(arg);
  std::string token;
  while (std::getline(is, token, ',')) {
    if (token.empty()) continue;
    cells.push_back(static_cast<std::size_t>(std::stoull(token)));
  }
  if (cells.empty()) {
    throw std::invalid_argument("--cells wants A,B,C, got \"" + arg + "\"");
  }
  return cells;
}

int cmd_list(const GridSource& source,
             const std::vector<std::string>& shard_paths) {
  if (!shard_paths.empty()) {
    // Shard-file inspection: which strategy cut each file, what it covers.
    TableWriter t({"Shard file", "Partition", "Cells", "Of", "Fingerprint"});
    for (const std::string& path : shard_paths) {
      ShardResult shard;
      try {
        shard = read_shard_json(read_file(path));
      } catch (const std::exception& e) {
        throw std::runtime_error(path + ": " + e.what());
      }
      t.row()
          .cell(path)
          .cell(shard.partition.empty() ? "(unrecorded)" : shard.partition)
          .cell(static_cast<std::int64_t>(shard.cell_indices.size()))
          .cell(static_cast<std::int64_t>(shard.total_cells))
          .cell(std::to_string(shard.sweep_fingerprint));
    }
    t.print(std::cout);
    return 0;
  }

  TableWriter t({"Grid", "Cells", "Est. cost (Cubic-s)", "Strategy",
                 "Fingerprint"});
  const auto add_row = [&](const ResolvedGrid& grid) {
    double cost = 0.0;
    for (const ScenarioSpec& cell : grid.sweep.cells) {
      cost += estimated_cost(cell);
    }
    t.row()
        .cell(grid.label)
        .cell(static_cast<std::int64_t>(grid.sweep.cells.size()))
        .cell(cost, 0)
        .cell(spec::to_string(grid.strategy))
        .cell(std::to_string(sweep_fingerprint(grid.sweep)));
  };
  if (!source.spec_path.empty()) {
    add_row(resolve_grid(source));
  } else {
    for (const std::string& name : spec::builtin_grid_names()) {
      GridSource builtin = source;
      builtin.grid_name = name;
      add_row(resolve_grid(builtin));
    }
  }
  t.print(std::cout);
  return 0;
}

int cmd_run(const GridSource& source, const std::string& shard_arg,
            const std::string& cells_arg, const std::string& out_path,
            int threads) {
  const ResolvedGrid grid = resolve_grid(source);
  if (!shard_arg.empty() || !cells_arg.empty()) {
    const std::vector<std::size_t> cells = !shard_arg.empty()
                                               ? parse_shard(shard_arg, grid)
                                               : parse_cells(cells_arg);
    ShardResult shard = run_shard(grid.sweep, cells, threads);
    shard.partition =
        !shard_arg.empty() ? spec::to_string(grid.strategy) : "explicit";
    write_file(out_path,
               [&](std::ostream& os) { write_shard_json(os, shard); });
    std::cout << "shard of " << shard.cell_indices.size() << "/"
              << shard.total_cells << " cells (" << shard.partition
              << ") -> " << out_path << "\n";
  } else {
    const SweepResult full = run_sweep(grid.sweep, threads);
    write_file(out_path,
               [&](std::ostream& os) { write_sweep_json(os, full); });
    std::cout << "sweep of " << full.cells.size() << " cells -> " << out_path
              << "\n";
  }
  return 0;
}

int cmd_merge(const GridSource& source, bool have_grid,
              const std::vector<std::string>& shard_paths,
              const std::string& out_path) {
  std::vector<ShardResult> shards;
  shards.reserve(shard_paths.size());
  for (const std::string& path : shard_paths) {
    try {
      shards.push_back(read_shard_json(read_file(path)));
    } catch (const std::exception& e) {
      throw std::runtime_error(path + ": " + e.what());
    }
  }
  const SweepResult merged = merge_shards(shards);
  if (have_grid) verify_sweep_result(merged, resolve_grid(source).sweep);
  write_file(out_path,
             [&](std::ostream& os) { write_sweep_json(os, merged); });
  std::cout << "merged " << shards.size() << " shards, " << merged.cells.size()
            << " cells -> " << out_path << "\n";
  return 0;
}

int cmd_dump(const GridSource& source, const std::string& out_path) {
  spec::ExperimentSpec experiment;
  experiment.name = source.grid_name;
  if (source.strategy.has_value()) experiment.strategy = *source.strategy;
  spec::BuiltinGridOptions options;
  options.seconds = source.seconds;
  options.base_seed = source.base_seed;
  experiment.sweep = spec::build_builtin_grid(source.grid_name, options);
  write_file(out_path, [&](std::ostream& os) {
    spec::write_experiment_json(os, experiment);
  });
  std::cout << "grid " << source.grid_name << " ("
            << experiment.sweep.cells.size() << " cells) -> " << out_path
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];

  GridSource source;
  std::string shard_arg;
  std::string cells_arg;
  std::string out_path;
  int threads = 0;
  std::vector<std::string> positional;

  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) {
          throw std::invalid_argument(arg + " needs a value");
        }
        return argv[++i];
      };
      if (arg == "--grid") source.grid_name = value();
      else if (arg == "--spec") source.spec_path = value();
      else if (arg == "--seconds") {
        source.seconds = std::stoi(value());
        source.seconds_given = true;
      }
      else if (arg == "--base-seed") source.base_seed = std::stoull(value());
      else if (arg == "--strategy") {
        const std::string name = value();
        source.strategy = spec::partition_from_name(name);
        if (!source.strategy.has_value()) {
          throw std::invalid_argument("--strategy wants round-robin or lpt, "
                                      "got \"" + name + "\"");
        }
      }
      else if (arg == "--threads") {
        // Strict parse: "--threads 0" means the hardware pool
        // (SweepOptions), but a negative count or trailing garbage
        // ("4x") must not reach the thread pool as a plausible number.
        const std::string text = value();
        std::size_t pos = 0;
        try {
          threads = std::stoi(text, &pos);
        } catch (const std::exception&) {
          pos = std::string::npos;
        }
        if (pos != text.size() || threads < 0) {
          std::cerr << "sweep_shard: --threads: must be a non-negative "
                       "integer (0 = all cores), got \"" << text << "\"\n";
          return 2;
        }
      }
      else if (arg == "--timeline") source.timeline = true;
      else if (arg == "--shard") shard_arg = value();
      else if (arg == "--cells") cells_arg = value();
      else if (arg == "--out") out_path = value();
      else if (arg.rfind("--", 0) == 0) return usage();
      else positional.push_back(arg);
    }
    if (source.seconds < 8) {
      throw std::invalid_argument("--seconds must be >= 8");
    }
    if (!source.grid_name.empty() && !source.spec_path.empty()) {
      throw std::invalid_argument("--grid and --spec are mutually exclusive");
    }
    const bool have_grid =
        !source.grid_name.empty() || !source.spec_path.empty();

    if (command == "list") {
      return cmd_list(source, positional);
    }
    if (command == "run") {
      if (!have_grid || out_path.empty() || !positional.empty() ||
          (!shard_arg.empty() && !cells_arg.empty())) {
        return usage();
      }
      return cmd_run(source, shard_arg, cells_arg, out_path, threads);
    }
    if (command == "merge") {
      if (out_path.empty() || positional.empty()) return usage();
      return cmd_merge(source, have_grid, positional, out_path);
    }
    if (command == "dump") {
      if (source.grid_name.empty() || out_path.empty() ||
          !positional.empty()) {
        return usage();
      }
      return cmd_dump(source, out_path);
    }
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "sweep_shard: " << e.what() << "\n";
    return 1;
  }
}
