# Integration test: a traced, telemetry-sampled run must produce a
# Perfetto-loadable trace with at least one complete transaction span
# (correlated with a bank probe and a mesh hop) and a point JSON whose
# timeseries carries the per-bank nmax and set-class EMAs
# (bank.<b>.nmax / hr_ref / hr_conv / hr_exp registry names), and whose
# last sample reads the stats dump's sim.cycles and sim.events.
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

execute_process(
    COMMAND ${SIM} --arch esp --workload apache --ops 3000
            --warmup 0 --trace-out ${WORKDIR}/trace.json
            --metrics-interval 10000 --json --stats
    RESULT_VARIABLE sim_result
    OUTPUT_FILE ${WORKDIR}/point.out
)
if(NOT sim_result EQUAL 0)
    message(FATAL_ERROR "traced run failed: ${sim_result}")
endif()

execute_process(
    COMMAND ${PYTHON} ${CHECKER} ${WORKDIR}/trace.json
            ${WORKDIR}/point.out
    RESULT_VARIABLE chk_result
)
if(NOT chk_result EQUAL 0)
    message(FATAL_ERROR "trace validation failed: ${chk_result}")
endif()

# The same trace must carry the epoch-telemetry counter tracks
# (pid 5, ph=C): every series present with monotonic timestamps.
execute_process(
    COMMAND ${PYTHON} ${CHECKER} --counters ${WORKDIR}/trace.json
    RESULT_VARIABLE chk_result
)
if(NOT chk_result EQUAL 0)
    message(FATAL_ERROR "counter-track validation failed: ${chk_result}")
endif()
file(REMOVE_RECURSE ${WORKDIR})
