# Contention stress for the sweep thread pool, run as a ctest target: four
# sweep_shard processes run the coexistence smoke spec AT ONCE, two pool
# threads each (eight worker threads in all), three rounds in a row, and
# every output must be byte-identical to a one-thread reference.  A race
# in shared process state (lazily built tables, caches) shows up here as a
# crash or a differing output, where a lone run would usually pass.
# Expects:
#   -DSWEEP_SHARD=<path to the sweep_shard binary>
#   -DSPEC_FILE=<path to specs/coexistence_smoke.json>
#   -DWORK_DIR=<scratch directory>
#
# Internally the script also runs in worker mode (-DWORKER_OUT=<file>): one
# sweep_shard run whose stdout it swallows.  execute_process chains its
# COMMANDs into a pipeline, so a bare sweep_shard writing its summary line
# after the next process has exited would die of SIGPIPE.
include(${CMAKE_CURRENT_LIST_DIR}/roundtrip_common.cmake)

if(WORKER_OUT)
  execute_process(
    COMMAND ${SWEEP_SHARD} run --spec ${SPEC_FILE} --threads 2
            --out ${WORKER_OUT}
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${WORKER_OUT}: sweep_shard exited ${rc}:\n${err}")
  endif()
  return()
endif()

roundtrip_begin(SWEEP_SHARD SPEC_FILE WORK_DIR)

run_tool(${SWEEP_SHARD} run --spec ${SPEC_FILE} --threads 1
  --out reference.json)

set(runs run1.json run2.json run3.json run4.json)
list(TRANSFORM runs PREPEND ${WORK_DIR}/ OUTPUT_VARIABLE run_paths)
list(LENGTH runs expected)
math(EXPR last "${expected} - 1")
set(commands)
foreach(run ${runs})
  list(APPEND commands COMMAND ${CMAKE_COMMAND}
    -DSWEEP_SHARD=${SWEEP_SHARD} -DSPEC_FILE=${SPEC_FILE}
    -DWORK_DIR=${WORK_DIR} -DWORKER_OUT=${run}
    -P ${CMAKE_CURRENT_LIST_FILE})
endforeach()
# Three rounds; in each, one execute_process starts all four commands
# concurrently.
foreach(round RANGE 1 3)
  file(REMOVE ${run_paths})
  execute_process(${commands}
    WORKING_DIRECTORY ${WORK_DIR}
    RESULTS_VARIABLE rcs
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  list(LENGTH rcs started)
  if(NOT started EQUAL expected)
    message(FATAL_ERROR
      "round ${round}: started ${started} of ${expected} runs:\n${err}")
  endif()
  foreach(i RANGE ${last})
    list(GET runs ${i} run)
    list(GET rcs ${i} rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "round ${round}: ${run} exited ${rc}:\n${err}")
    endif()
  endforeach()
  foreach(run ${runs})
    require_same(${run} reference.json
      "round ${round}: a 2-thread run under 4-process contention differs from the 1-thread run")
  endforeach()
endforeach()
message(STATUS "3 rounds of 4 concurrent 2-thread sweeps are byte-identical to the 1-thread run")
