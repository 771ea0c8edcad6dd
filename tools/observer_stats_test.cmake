# Observing a run must not change it: the --stats output of the run
# given by ARGS is byte-identical without an observer, with
# --metrics-interval, with --watchdog, with both and with --trace-out,
# and its dump reads the pinned sim.cycles CYCLES and sim.events EVENTS
# (a sampler tick or a watchdog check that ran as an event would add
# to the event count, and the last one would move the clock).
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
separate_arguments(args UNIX_COMMAND "${ARGS}")
set(plain_flags "")
set(metrics_flags --metrics-interval 1000)
set(watchdog_flags --watchdog 100000)
set(both_flags --metrics-interval 1000 --watchdog 100000)
set(trace_flags --trace-out ${WORKDIR}/trace.json)
foreach(v plain metrics watchdog both trace)
    execute_process(
        COMMAND ${SIM} ${args} --stats ${${v}_flags}
        RESULT_VARIABLE r
        OUTPUT_VARIABLE out
    )
    if(NOT r EQUAL 0)
        message(FATAL_ERROR "${v} run failed: ${r}")
    endif()
    if(v STREQUAL "plain")
        set(plain "${out}")
    elseif(NOT out STREQUAL plain)
        file(WRITE ${WORKDIR}/plain.txt "${plain}")
        file(WRITE ${WORKDIR}/${v}.txt "${out}")
        message(FATAL_ERROR "--stats differs with ${${v}_flags}: "
                            "compare ${WORKDIR}/plain.txt ${v}.txt")
    endif()
endforeach()
foreach(pin "sim.cycles ${CYCLES}" "sim.events ${EVENTS}")
    string(FIND "${plain}" "\n${pin}\n" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "--stats does not read '${pin}'")
    endif()
endforeach()
file(REMOVE_RECURSE ${WORKDIR})
