# Integration test: with --prof --stats every prof.* counter must be
# printed exactly once. The per-run stats dump already carries the
# profiler registry; the trailing prof table is for --prof alone.
execute_process(
    COMMAND ${SIM} --arch esp-nuca --workload gzip-4 --ops 2000
            --warmup 0 --prof --stats
    RESULT_VARIABLE sim_result
    OUTPUT_VARIABLE out
)
if(NOT sim_result EQUAL 0)
    message(FATAL_ERROR "profiled stats run failed: ${sim_result}")
endif()

string(REPLACE "\n" ";" lines "${out}")
set(names "")
foreach(line IN LISTS lines)
    if(line MATCHES "^(prof\\.[^ ]+) ")
        list(APPEND names "${CMAKE_MATCH_1}")
    endif()
endforeach()
list(LENGTH names n)
if(n EQUAL 0)
    message(FATAL_ERROR "no prof.* lines in the output:\n${out}")
endif()
set(distinct ${names})
list(REMOVE_DUPLICATES distinct)
list(LENGTH distinct d)
if(NOT n EQUAL d)
    message(FATAL_ERROR "${n} prof.* lines for ${d} distinct names")
endif()
