# Chaos acceptance test for the crash-safe sweep supervisor: run a
# small fig07 grid unsupervised for the reference document, then run the
# same grid under espnuca-swarm with --chaos randomly SIGKILLing
# workers, merge the surviving per-point files, and byte-compare the
# merged document against the unsupervised run — worker death at any
# instant must not change a single result byte. Then deliberately
# corrupt and remove point files to prove espnuca-merge's
# machine-readable exit codes (5 = checksum, 8 = incomplete grid).
#
# ESPNUCA_JOBS is pinned because the config section records the
# resolved worker count; ESPNUCA_CKPT_DIR is cleared because phased
# warmup deliberately produces different (self-consistent) results
# than the default continuous warmup. The env is set process-wide (not
# per-command) so the supervisor's fork/exec'd workers inherit it.
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

set(ENV{ESPNUCA_OPS} 2000)
set(ENV{ESPNUCA_RUNS} 2)
set(ENV{ESPNUCA_JOBS} 2)
unset(ENV{ESPNUCA_CKPT_DIR})

execute_process(
    COMMAND ${BENCH} --json ${WORKDIR}/unsharded.json
    RESULT_VARIABLE r
    OUTPUT_QUIET
)
if(NOT r EQUAL 0)
    message(FATAL_ERROR "unsupervised run failed: ${r}")
endif()

# Supervised run with induced kills. Short backoff keeps the test
# quick; the generous restart budget absorbs however many kills the
# chaos schedule lands.
execute_process(
    COMMAND ${SWARM} --results-dir ${WORKDIR}/points --shards 2
            --chaos 8 --chaos-seed 42 --poll 10
            --backoff-ms 5 --backoff-cap-ms 50
            --stall-timeout 120000 --max-restarts 500 --quiet
            -- ${BENCH}
    RESULT_VARIABLE r
    OUTPUT_VARIABLE swarm_out
)
if(NOT r EQUAL 0)
    message(FATAL_ERROR "supervised sweep failed: ${r}\n${swarm_out}")
endif()
string(FIND "${swarm_out}" " 0 worker death(s)" no_kills)
if(NOT no_kills EQUAL -1)
    message(FATAL_ERROR
            "chaos mode killed no workers — the test proved nothing:\n"
            "${swarm_out}")
endif()
string(FIND "${swarm_out}" "0 point(s) quarantined" found)
if(found EQUAL -1)
    message(FATAL_ERROR
            "chaos kills must never be charged into quarantine:\n"
            "${swarm_out}")
endif()

execute_process(
    COMMAND ${MERGE} --results-dir ${WORKDIR}/points
            --out ${WORKDIR}/merged.json --json-errors
    RESULT_VARIABLE r
)
if(NOT r EQUAL 0)
    message(FATAL_ERROR "merge failed: ${r}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORKDIR}/unsharded.json ${WORKDIR}/merged.json
    RESULT_VARIABLE r
)
if(NOT r EQUAL 0)
    message(FATAL_ERROR
            "merged document differs from the unsupervised run")
endif()

# --- run ledger + live telemetry ------------------------------------
# Random kills landed above; the ledger must still be complete: every
# line CRC-valid (at most a torn tail per writer), and every
# point-start resolved by a terminal event somewhere in the fleet.
if(PYTHON)
    file(GLOB shard_ledgers ${WORKDIR}/points/events-shard-*.jsonl)
    if(NOT EXISTS ${WORKDIR}/points/events-supervisor.jsonl)
        message(FATAL_ERROR "supervisor ledger missing")
    endif()
    if(shard_ledgers STREQUAL "")
        message(FATAL_ERROR "no shard ledgers written")
    endif()
    execute_process(
        COMMAND ${PYTHON} ${CHECKER} --ledger
                ${WORKDIR}/points/events-supervisor.jsonl
                ${shard_ledgers}
        RESULT_VARIABLE r
        OUTPUT_VARIABLE ledger_out
    )
    if(NOT r EQUAL 0)
        message(FATAL_ERROR "ledger validation failed: ${r}")
    endif()

    # espnuca-top totals must agree with the merged bench document:
    # every grid point terminal, none quarantined, chaos kills visible.
    execute_process(
        COMMAND ${TOP} --results-dir ${WORKDIR}/points --json
        RESULT_VARIABLE r
        OUTPUT_VARIABLE top_json
    )
    if(NOT r EQUAL 0)
        message(FATAL_ERROR "espnuca-top failed: ${r}")
    endif()
    string(JSON top_total GET "${top_json}" totals total)
    string(JSON top_done GET "${top_json}" totals done)
    string(JSON top_terminal GET "${top_json}" totals points_terminal)
    string(JSON top_quarantined GET "${top_json}" totals quarantined)
    string(JSON top_kills GET "${top_json}" supervisor chaos_kills)
    file(READ ${WORKDIR}/merged.json merged_doc)
    string(JSON merged_points LENGTH "${merged_doc}" points)
    if(NOT top_total EQUAL merged_points)
        message(FATAL_ERROR
                "espnuca-top total ${top_total} != merged document's "
                "${merged_points} point(s)")
    endif()
    if(NOT top_done EQUAL top_total OR NOT top_terminal EQUAL top_total)
        message(FATAL_ERROR
                "espnuca-top reports an unfinished swarm: done "
                "${top_done}, terminal ${top_terminal} of ${top_total}")
    endif()
    if(NOT top_quarantined EQUAL 0)
        message(FATAL_ERROR
                "chaos kills leaked into quarantine: "
                "${top_quarantined}")
    endif()
    if(top_kills EQUAL 0)
        message(FATAL_ERROR
                "supervisor ledger recorded no chaos kills")
    endif()

    # Swarm Perfetto timeline: supervisor + shard tracks, point slices.
    execute_process(
        COMMAND ${TOP} --results-dir ${WORKDIR}/points
                --perfetto ${WORKDIR}/swarm.json
        RESULT_VARIABLE r
        OUTPUT_QUIET
    )
    if(NOT r EQUAL 0)
        message(FATAL_ERROR "swarm timeline export failed: ${r}")
    endif()
    execute_process(
        COMMAND ${PYTHON} ${CHECKER} --swarm ${WORKDIR}/swarm.json
        RESULT_VARIABLE r
    )
    if(NOT r EQUAL 0)
        message(FATAL_ERROR "swarm timeline validation failed: ${r}")
    endif()
endif()

# --- machine-readable merge exit codes -------------------------------
# Find one real point file (16-hex-digit stem; heartbeats and the
# quarantine file share the directory).
set(victim "")
file(GLOB candidates ${WORKDIR}/points/*.json)
foreach(f ${candidates})
    get_filename_component(stem ${f} NAME_WE)
    string(LENGTH "${stem}" n)
    if(n EQUAL 16)
        set(victim ${f})
        break()
    endif()
endforeach()
if(victim STREQUAL "")
    message(FATAL_ERROR "no point file found to corrupt")
endif()

# Flipped content => exit 5 (checksum mismatch), cause string in the
# --json-errors report.
file(READ ${victim} original)
file(WRITE ${victim} "${original}garbage")
execute_process(
    COMMAND ${MERGE} --results-dir ${WORKDIR}/points
            --out ${WORKDIR}/merged2.json --json-errors
    RESULT_VARIABLE r
    OUTPUT_VARIABLE merge_out
    ERROR_QUIET
)
if(NOT r EQUAL 4)
    # trailing garbage breaks the record frame => bad-record (4)
    message(FATAL_ERROR
            "corrupt point file: expected exit 4, got ${r}")
endif()
file(WRITE ${victim} "${original}")

# Flip a content byte (keep the frame) => checksum mismatch (5).
string(REGEX REPLACE "\"bench\":\"fig" "\"bench\":\"gif" flipped
       "${original}")
if(flipped STREQUAL "${original}")
    message(FATAL_ERROR "bit-flip substitution failed")
endif()
file(WRITE ${victim} "${flipped}")
execute_process(
    COMMAND ${MERGE} --results-dir ${WORKDIR}/points
            --out ${WORKDIR}/merged2.json --json-errors
    RESULT_VARIABLE r
    OUTPUT_VARIABLE merge_out
    ERROR_QUIET
)
if(NOT r EQUAL 5)
    message(FATAL_ERROR
            "flipped point file: expected exit 5, got ${r}")
endif()
string(FIND "${merge_out}" "checksum-mismatch" found)
if(found EQUAL -1)
    message(FATAL_ERROR
            "--json-errors report missing cause: ${merge_out}")
endif()

# Missing point file => incomplete grid (8).
file(REMOVE ${victim})
execute_process(
    COMMAND ${MERGE} --results-dir ${WORKDIR}/points
            --out ${WORKDIR}/merged2.json --json-errors
    RESULT_VARIABLE r
    OUTPUT_VARIABLE merge_out
    ERROR_QUIET
)
if(NOT r EQUAL 8)
    message(FATAL_ERROR
            "missing point file: expected exit 8, got ${r}")
endif()
string(FIND "${merge_out}" "incomplete-grid" found)
if(found EQUAL -1)
    message(FATAL_ERROR
            "--json-errors report missing cause: ${merge_out}")
endif()

file(REMOVE_RECURSE ${WORKDIR})
