# Acceptance check for declarative experiment specs, run as a ctest
# target: a sweep defined ONLY by the checked-in JSON spec must produce
# byte-identical results to the equivalent compiled-in grid, both as one
# process and as an LPT-sharded 3-process run.  Expects:
#   -DSWEEP_SHARD=<path to the sweep_shard binary>
#   -DSPEC_LINT=<path to the spec_lint binary>
#   -DSPEC_FILE=<path to specs/coexistence_smoke.json>
#   -DWORK_DIR=<scratch directory>
include(${CMAKE_CURRENT_LIST_DIR}/roundtrip_common.cmake)
roundtrip_begin(SWEEP_SHARD SPEC_LINT SPEC_FILE WORK_DIR)

# The spec must lint clean...
run_tool(${SPEC_LINT} ${SPEC_FILE} --expand --shards 3)

# ...the spec-defined sweep must equal the compiled grid it mirrors
# (--seconds 10 --base-seed 42 is what the spec file encodes)...
run_tool(${SWEEP_SHARD} run --spec ${SPEC_FILE} --out full_spec.json)
run_tool(${SWEEP_SHARD} run --grid coexistence-smoke --seconds 10
         --base-seed 42 --out full_grid.json)
require_same(full_spec.json full_grid.json
  "spec-defined sweep differs from the compiled-in grid")

# ...and an LPT-sharded 3-process run of the spec (its plan.strategy is
# lpt) must merge back to the same bytes.
foreach(i RANGE 1 3)
  run_tool(${SWEEP_SHARD} run --spec ${SPEC_FILE} --shard ${i}/3
           --out shard${i}.json)
endforeach()
run_tool(${SWEEP_SHARD} merge --spec ${SPEC_FILE} --out merged.json
         shard1.json shard2.json shard3.json)
require_same(merged.json full_spec.json
  "LPT 3-shard merge differs from the single-process spec run")

message(STATUS
  "spec-defined sweep is byte-identical to the compiled grid, serial and "
  "LPT-sharded")
