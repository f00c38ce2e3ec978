# Acceptance check for the tower topology, run as a ctest target: the
# checked-in tower smoke spec (64 churning users per cell) must lint and
# expand with every cell described, and a 2-shard multi-PROCESS run must
# merge into a sweep file byte-identical to the single-process run's —
# per-user channels, the PF schedule, Poisson churn and the streaming
# population histograms all reproduced exactly.
# Expects:
#   -DSWEEP_SHARD=<path to the sweep_shard binary>
#   -DSPEC_LINT=<path to the spec_lint binary>
#   -DSPEC_FILE=<path to specs/tower_smoke.json>
#   -DWORK_DIR=<scratch directory>
include(${CMAKE_CURRENT_LIST_DIR}/roundtrip_common.cmake)
roundtrip_begin(SWEEP_SHARD SPEC_LINT SPEC_FILE WORK_DIR)

# The spec must lint (strict reader, shard plan preview included)...
run_tool(${SPEC_LINT} ${SPEC_FILE} --shards 2)
# ...and expand with every cell described: a "?" cell means spec_lint has
# no summary for the tower topology.
execute_process(COMMAND ${SPEC_LINT} ${SPEC_FILE} --expand
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE expanded
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "spec_lint --expand exited ${rc}:\n${expanded}\n${err}")
endif()
if(expanded MATCHES "(^|[ |])\\?([ |]|\n|$)")
  message(FATAL_ERROR "spec_lint --expand left a cell as '?':\n${expanded}")
endif()
# ...two shard processes each take one tower cell...
run_tool(${SWEEP_SHARD} run --spec ${SPEC_FILE} --shard 1/2 --out shard1.json)
run_tool(${SWEEP_SHARD} run --spec ${SPEC_FILE} --shard 2/2 --out shard2.json)
# ...one merge, verified against the spec's content address...
run_tool(${SWEEP_SHARD} merge --spec ${SPEC_FILE} --out merged.json
         shard1.json shard2.json)
# ...and the single-process reference.
run_tool(${SWEEP_SHARD} run --spec ${SPEC_FILE} --out full.json)

require_same(merged.json full.json
  "merged 2-shard tower sweep differs from the single-process run")
message(STATUS "2-shard tower merge is byte-identical to the single-process sweep")
