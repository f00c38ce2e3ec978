# Acceptance check for the observability layer, run as a ctest target:
# instrumentation must never perturb results.  The same grid is swept
# three ways — plain, with SPROUT_OBS=1 (hot-path counting on), and
# orchestrated with --metrics-out/--trace-out (runtime stamping on) — and
# the first two must be byte-identical outright, the third after
# `obs_report strip-runtime` removes its telemetry stamps.  The telemetry
# files themselves must pass the strict validators.
# Expects:
#   -DSWEEP_SHARD=<path to the sweep_shard binary>
#   -DSWEEP_ORCHESTRATE=<path to the sweep_orchestrate binary>
#   -DOBS_REPORT=<path to the obs_report binary>
#   -DSPEC_FILE=<path to specs/coexistence_smoke.json>
#   -DWORK_DIR=<scratch directory>
include(${CMAKE_CURRENT_LIST_DIR}/roundtrip_common.cmake)
roundtrip_begin(SWEEP_SHARD SWEEP_ORCHESTRATE OBS_REPORT SPEC_FILE WORK_DIR)

# Same as run_tool, but with SPROUT_OBS=1 in the child's environment.
function(run_tool_obs)
  run_tool(${CMAKE_COMMAND} -E env SPROUT_OBS=1 ${ARGN})
endfunction()

# The untelemetered reference.
run_tool(${SWEEP_SHARD} run --spec ${SPEC_FILE} --out plain.json)

# Hot-path counting on: same bytes.
run_tool_obs(${SWEEP_SHARD} run --spec ${SPEC_FILE} --out obs_on.json)
require_same(obs_on.json plain.json
  "SPROUT_OBS=1 sweep vs untelemetered sweep")

# Full telemetry: metrics feed, trace, runtime stamps — and after the
# stamps are stripped, the same bytes again.
run_tool_obs(${SWEEP_ORCHESTRATE} run --spec ${SPEC_FILE}
  --journal-dir jobs --out orch_obs.json --workers 2 --quiet
  --metrics-out metrics.jsonl --trace-out trace.json)
run_tool(${OBS_REPORT} validate-metrics metrics.jsonl)
run_tool(${OBS_REPORT} validate-trace trace.json)
run_tool(${OBS_REPORT} strip-runtime orch_obs.json orch_stripped.json)
require_same(orch_stripped.json plain.json
  "runtime-stripped telemetered orchestration vs untelemetered sweep")

message(STATUS "observability leaves every sweep byte-identical: "
  "SPROUT_OBS=1 outright, --metrics-out after strip-runtime")
