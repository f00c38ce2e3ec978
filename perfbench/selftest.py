#!/usr/bin/env python3
"""Short-run self-test of the benchmark.

    python3 perfbench/selftest.py

Builds the benchmark, then runs every workload with 10 s cells and checks:
  * every metric BENCHMARK.json names is printed, with its unit, in the
    result of the run that owns it (end-to-end: --trace 0, per-layer:
    --trace 1), and no other metric is;
  * counts, count ratios and simulated outcomes repeat exactly for the
    same seed;
  * a spec that run_scenario rejects raises cells_failed_frac above 0.
Exits 0 when every check passes.
"""
import json
import math
import os
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = "7"
# Per-layer metrics that are counts or ratios of counts: exact per seed.
EXACT_UNITS = {"count"}
EXACT_RATIOS = {
    "core.batcher.batched_share", "core.forecast.batched_share",
    "core.filter.censored_share", "runner.cache.traces.hit_ratio",
    "runner.cache.tables.hit_ratio", "util.kernels.axpy_per_evolve",
}
# Result lines with simulated outcomes: exact per seed.
OUTCOME_PREFIXES = ("sprout_", "flow_")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(binary, workload, trace, *extra):
    cmd = [binary, "--root", ROOT, "--workload", workload, "--seed", SEED,
           "--seconds", "1", "--trace", str(trace), "--short", *extra]
    done = subprocess.run(cmd, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed ({done.returncode}): {' '.join(cmd)}"
                         f"\n{done.stdout}\n{done.stderr}")
    outcomes = sorted(l.strip() for l in lines
                      if l.strip().startswith(OUTCOME_PREFIXES))
    return json.loads(lines[-1]), outcomes


def check_names(result, declared, label):
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    check(set(printed) == set(want),
          f"{label}: prints exactly the declared metrics "
          f"(missing {sorted(set(want) - set(printed))}, "
          f"extra {sorted(set(printed) - set(want))})")
    wrong = [n for n in want if n in printed and printed[n] != want[n]]
    check(not wrong, f"{label}: every metric carries its declared unit {wrong}")
    bad = [n for n, v in result["metrics"].items()
           if not isinstance(v["value"], (int, float))
           or not math.isfinite(v["value"])]
    check(not bad, f"{label}: every value is a finite number {bad}")


def main():
    binary = run.build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    per_layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for w in (x["name"] for x in spec["workloads"]):
        timed, outcomes = bench(binary, w, 0)
        check_names(timed, spec["end_to_end"], f"{w} --trace 0")
        check(timed["correct"] and timed["attempted"] >= 1,
              f"{w} --trace 0: correct, with cells attempted")
        _, outcomes_again = bench(binary, w, 0)
        check(bool(outcomes) and outcomes == outcomes_again,
              f"{w}: simulated outcomes repeat for seed {SEED}")

        traced, _ = bench(binary, w, 1)
        check_names(traced, spec["per_layer"], f"{w} --trace 1")
        check(traced["correct"], f"{w} --trace 1: correct")
        again, _ = bench(binary, w, 1)
        exact = [n for n, u in per_layer_units.items()
                 if u in EXACT_UNITS or n in EXACT_RATIOS]
        differ = [n for n in exact
                  if traced["metrics"][n]["value"] != again["metrics"][n]["value"]]
        check(not differ, f"{w}: {len(exact)} counts and count ratios repeat "
                          f"exactly for seed {SEED} {differ}")

    for w in ("tower", "paper-grid"):
        bad, _ = bench(binary, w, 0, "--inject-bad-cell")
        ok_frac = bad["metrics"]["cells_ok_frac"]["value"]
        check(bad["failed"] > 0 and ok_frac < 1.0,
              f"{w}: a spec run_scenario rejects raises cells_failed_frac "
              f"to {1.0 - ok_frac:.3f} ({bad['failed']} of "
              f"{bad['attempted']} cells)")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
