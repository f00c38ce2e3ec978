# Acceptance check for the channel-synthesis subsystem, run as a ctest
# target: a sweep whose channels exist ONLY as synth parameters in the
# checked-in JSON spec (no trace on disk) must lint clean, run, and be
# byte-identical between a single process and a 2-way sharded run; the
# trace_synth generator itself must be deterministic across invocations.
# Expects:
#   -DSWEEP_SHARD=<path to the sweep_shard binary>
#   -DSPEC_LINT=<path to the spec_lint binary>
#   -DTRACE_SYNTH=<path to the trace_synth binary>
#   -DSPEC_FILE=<path to specs/synth_smoke.json>
#   -DWORK_DIR=<scratch directory>
include(${CMAKE_CURRENT_LIST_DIR}/roundtrip_common.cmake)
roundtrip_begin(SWEEP_SHARD SPEC_LINT TRACE_SYNTH SPEC_FILE WORK_DIR)

# The generator is deterministic: two invocations, identical trace files.
run_tool(${TRACE_SYNTH} --model markov --duration 30 --seed 9
         --out mmpp_a.tr)
run_tool(${TRACE_SYNTH} --model markov --duration 30 --seed 9
         --out mmpp_b.tr)
require_same(mmpp_a.tr mmpp_b.tr
             "trace_synth produced different traces for identical inputs")

# The spec must lint clean (its grid sweeps two synth parameters via
# numeric range axes)...
run_tool(${SPEC_LINT} ${SPEC_FILE} --expand --shards 2)

# ...and a fully synthetic sweep must be byte-identical between one
# process and an LPT-sharded 2-process run.
run_tool(${SWEEP_SHARD} run --spec ${SPEC_FILE} --out full.json)
foreach(i RANGE 1 2)
  run_tool(${SWEEP_SHARD} run --spec ${SPEC_FILE} --shard ${i}/2
           --out shard${i}.json)
endforeach()
run_tool(${SWEEP_SHARD} merge --spec ${SPEC_FILE} --out merged.json
         shard1.json shard2.json)
require_same(merged.json full.json
             "2-shard synth sweep differs from the single-process run")

message(STATUS
  "synth spec sweep is byte-identical single-process and sharded; "
  "trace_synth is deterministic")
