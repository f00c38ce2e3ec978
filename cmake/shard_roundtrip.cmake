# Acceptance check for sharded sweeps, run as a ctest target: a 3-shard
# multi-PROCESS run of the coexistence smoke grid must merge into a sweep
# file byte-identical to the single-process run's.  Expects:
#   -DSWEEP_SHARD=<path to the sweep_shard binary>
#   -DWORK_DIR=<scratch directory>
include(${CMAKE_CURRENT_LIST_DIR}/roundtrip_common.cmake)
roundtrip_begin(SWEEP_SHARD WORK_DIR)

set(GRID --grid coexistence-smoke --seconds 10 --base-seed 42)

# Three shard processes (any of these could run on another machine)...
foreach(i RANGE 1 3)
  run_tool(${SWEEP_SHARD} run ${GRID} --shard ${i}/3 --out shard${i}.json)
endforeach()
# ...one merge, verified against the grid's content address...
run_tool(${SWEEP_SHARD} merge ${GRID} --out merged.json
  shard1.json shard2.json shard3.json)
# ...and the single-process reference.
run_tool(${SWEEP_SHARD} run ${GRID} --out full.json)

require_same(merged.json full.json
  "merged 3-shard sweep differs from the single-process run")
message(STATUS "3-shard merge is byte-identical to the single-process sweep")
