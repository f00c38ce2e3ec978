# Acceptance check for the flight recorder, run as a ctest target: the
# timeline is a pure observer.  The same grid is swept four ways —
# timeline-off (the reference), timeline-on serial, timeline-on with the
# in-process thread pool, and timeline-on cut into two lpt shards and
# merged — and every timeline-on sweep must be byte-identical to the
# others, must validate against the strict timeline schema, and must
# reduce to the timeline-off reference after `timeline_report
# strip-timeline`.  A tower grid repeats the off-vs-stripped check so the
# streaming topology is held to the same contract.
# Expects:
#   -DSWEEP_SHARD=<path to the sweep_shard binary>
#   -DTIMELINE_REPORT=<path to the timeline_report binary>
#   -DSPEC_FILE=<path to specs/coexistence_smoke.json>
#   -DTOWER_SPEC_FILE=<path to specs/tower_smoke.json>
#   -DWORK_DIR=<scratch directory>
include(${CMAKE_CURRENT_LIST_DIR}/roundtrip_common.cmake)
roundtrip_begin(SWEEP_SHARD TIMELINE_REPORT SPEC_FILE TOWER_SPEC_FILE WORK_DIR)

# The recorder-off reference.
run_tool(${SWEEP_SHARD} run --spec ${SPEC_FILE} --out off.json --threads 1)

# Timeline on: serial, thread-pool, and two-shard-merged must agree
# bitwise (record_timeline is excluded from the fingerprint, so the
# shards cut the same grid the reference ran).
run_tool(${SWEEP_SHARD} run --spec ${SPEC_FILE} --out on_serial.json
  --threads 1 --timeline)
run_tool(${SWEEP_SHARD} run --spec ${SPEC_FILE} --out on_pool.json
  --threads 4 --timeline)
run_tool(${SWEEP_SHARD} run --spec ${SPEC_FILE} --out shard0.json
  --shard 1/2 --strategy lpt --timeline)
run_tool(${SWEEP_SHARD} run --spec ${SPEC_FILE} --out shard1.json
  --shard 2/2 --strategy lpt --timeline)
run_tool(${SWEEP_SHARD} merge --out on_merged.json shard0.json shard1.json)
require_same(on_pool.json on_serial.json
  "timeline-on thread-pool sweep vs serial sweep")
require_same(on_merged.json on_serial.json
  "timeline-on two-shard merge vs serial sweep")

# The timelines themselves pass the strict schema gate, and stripping
# them reproduces the recorder-off bytes exactly.
run_tool(${TIMELINE_REPORT} validate-timeline on_serial.json)
run_tool(${TIMELINE_REPORT} strip-timeline on_serial.json stripped.json)
require_same(stripped.json off.json
  "timeline-stripped sweep vs recorder-off sweep")

# The schema gate must REJECT a malformed feed, naming the offending
# timeline's path: corrupt one geometry field and expect exit 1.
file(READ ${WORK_DIR}/on_serial.json good_text)
string(REPLACE "\"bin_s\": 0.5" "\"bin_s\": -1" bad_text "${good_text}")
if(bad_text STREQUAL good_text)
  message(FATAL_ERROR "corruption probe matched nothing in on_serial.json")
endif()
file(WRITE ${WORK_DIR}/corrupt.json "${bad_text}")
execute_process(COMMAND ${TIMELINE_REPORT} validate-timeline corrupt.json
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE bad_rc
  OUTPUT_VARIABLE bad_out
  ERROR_VARIABLE bad_err)
if(bad_rc EQUAL 0)
  message(FATAL_ERROR "validate-timeline accepted a corrupted feed")
endif()
if(NOT bad_err MATCHES "timeline")
  message(FATAL_ERROR
    "validate-timeline rejection names no timeline path:\n${bad_err}")
endif()

# Tower grid: the streaming topology records, validates and strips under
# the same contract.
run_tool(${SWEEP_SHARD} run --spec ${TOWER_SPEC_FILE} --out tower_off.json
  --threads 2)
run_tool(${SWEEP_SHARD} run --spec ${TOWER_SPEC_FILE} --out tower_on.json
  --threads 2 --timeline)
run_tool(${TIMELINE_REPORT} validate-timeline tower_on.json)
run_tool(${TIMELINE_REPORT} strip-timeline tower_on.json tower_stripped.json)
require_same(tower_stripped.json tower_off.json
  "timeline-stripped tower sweep vs recorder-off tower sweep")

message(STATUS "flight recorder leaves every sweep byte-identical: "
  "serial == pool == merged with timelines on, off == stripped on every "
  "topology")
