# Helpers shared by the *_roundtrip.cmake ctest scripts.  Each script
# passes the variables it needs with -D and calls roundtrip_begin() first.

# Fails unless every named variable was passed, then starts from an empty
# WORK_DIR (which must be one of the names).
function(roundtrip_begin)
  foreach(var ${ARGN})
    if(NOT ${var})
      message(FATAL_ERROR "need -D${var}=...")
    endif()
  endforeach()
  file(REMOVE_RECURSE ${WORK_DIR})
  file(MAKE_DIRECTORY ${WORK_DIR})
endfunction()

# Runs a command in WORK_DIR and demands a SPECIFIC exit code, printing
# its output on a mismatch.
function(run_expect expected_rc)
  execute_process(COMMAND ${ARGN}
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL expected_rc)
    message(FATAL_ERROR
      "${ARGN} exited ${rc}, expected ${expected_rc}:\n${out}\n${err}")
  endif()
endfunction()

function(run_tool)
  run_expect(0 ${ARGN})
endfunction()

# The byte-identity assertion: two files under WORK_DIR must be equal.
function(require_same a b what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    ${WORK_DIR}/${a} ${WORK_DIR}/${b}
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR
      "${what}: ${WORK_DIR}/${a} differs from ${WORK_DIR}/${b}")
  endif()
endfunction()
