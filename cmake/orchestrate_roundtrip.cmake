# Acceptance check for the fault-tolerant orchestrator, run as a ctest
# target: a run killed mid-flight (--halt-after SIGKILLs every worker, the
# same wound as kill -9 of the job tree) must resume from its journals
# into a sweep file byte-identical to the single-process run; the journals
# must export into shard files the plain sweep_shard merge accepts with
# the same bytes; and a cell forced to crash its worker on every attempt
# must land on the poison list (exit 3) without sinking the sweep —
# resuming after the "fix" completes it.
# Expects:
#   -DSWEEP_ORCHESTRATE=<path to the sweep_orchestrate binary>
#   -DSWEEP_SHARD=<path to the sweep_shard binary>
#   -DSPEC_FILE=<path to specs/coexistence_smoke.json>
#   -DWORK_DIR=<scratch directory>
include(${CMAKE_CURRENT_LIST_DIR}/roundtrip_common.cmake)
roundtrip_begin(SWEEP_ORCHESTRATE SWEEP_SHARD SPEC_FILE WORK_DIR)

# The single-process reference.
run_tool(${SWEEP_SHARD} run --spec ${SPEC_FILE} --out full.json)

# --- kill mid-run, resume ------------------------------------------------
# Two cells in, every worker is SIGKILLed (exit 4, journals kept; the
# halted and poisoned exit codes are contracts, hence run_expect)...
run_expect(4 ${SWEEP_ORCHESTRATE} run --spec ${SPEC_FILE}
  --journal-dir jkill --out orch.json --workers 2 --halt-after 2 --quiet)
# ...and re-running the same command resumes to the same bytes.
run_tool(${SWEEP_ORCHESTRATE} run --spec ${SPEC_FILE}
  --journal-dir jkill --out orch.json --workers 2 --quiet)
require_same(orch.json full.json
  "killed + resumed orchestrated sweep vs single-process run")

# --- journals replay through the plain shard merge -----------------------
run_tool(${SWEEP_ORCHESTRATE} export --spec ${SPEC_FILE}
  --journal-dir jkill --out-prefix exported_)
file(GLOB exported RELATIVE ${WORK_DIR} ${WORK_DIR}/exported_*.json)
run_tool(${SWEEP_SHARD} merge --spec ${SPEC_FILE} --out remerged.json
  ${exported})
require_same(remerged.json full.json
  "journal-exported shards merged by sweep_shard vs single-process run")

# --- poison path ---------------------------------------------------------
# Cell 0 crashes its worker on every attempt: quarantined after
# --max-attempts (exit 3, report written), the other cells complete...
run_expect(3 ${SWEEP_ORCHESTRATE} run --spec ${SPEC_FILE}
  --journal-dir jpoison --out poisoned.json --workers 2
  --crash-cell 0 --max-attempts 2 --retry-backoff 0.05
  --poison-report poison.json --quiet)
if(NOT EXISTS ${WORK_DIR}/poison.json)
  message(FATAL_ERROR "poisoned run wrote no poison report")
endif()
file(READ ${WORK_DIR}/poison.json poison_report)
if(NOT poison_report MATCHES "\"index\": 0")
  message(FATAL_ERROR
    "poison report does not name the crashed cell:\n${poison_report}")
endif()
# ...and with the crash hook gone the same journals resume to completion.
run_tool(${SWEEP_ORCHESTRATE} run --spec ${SPEC_FILE}
  --journal-dir jpoison --out poisoned.json --workers 2 --quiet)
require_same(poisoned.json full.json
  "post-poison resumed sweep vs single-process run")

message(STATUS "orchestrated (killed + resumed, exported, poisoned + "
  "resumed) sweeps are byte-identical to the single-process run")
