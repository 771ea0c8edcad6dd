# espnuca-report acceptance: a self-diff is clean (exit 0 even under
# --check), an injected beyond-threshold regression trips --check
# (exit 1), and the --json report parses and names the regressed
# metric. The documents are crafted here so the test exercises the
# direction heuristics (ns_per_* lower-better, *_per_sec and *_per_s
# higher-better) without depending on bench runtimes. Bad --threshold
# values and a --check over an empty selection exit 2.
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

file(WRITE ${WORKDIR}/baseline.json [[
{
  "protocol": {
    "esp_nuca": { "ns_per_transaction": 100.0 },
    "snuca": { "ns_per_transaction": 120.0 }
  },
  "throughput": { "points_per_sec": 50.0 }
}
]])

# Self-diff: identical documents must never report a regression.
execute_process(
    COMMAND ${REPORT} --baseline ${WORKDIR}/baseline.json
            --new ${WORKDIR}/baseline.json --check
    RESULT_VARIABLE r
    OUTPUT_QUIET
)
if(NOT r EQUAL 0)
    message(FATAL_ERROR "self-diff: expected exit 0, got ${r}")
endif()

# +30% on a lower-is-better metric and -40% on a higher-is-better one:
# both must be flagged under the default threshold.
file(WRITE ${WORKDIR}/regressed.json [[
{
  "protocol": {
    "esp_nuca": { "ns_per_transaction": 130.0 },
    "snuca": { "ns_per_transaction": 120.0 }
  },
  "throughput": { "points_per_sec": 30.0 }
}
]])
execute_process(
    COMMAND ${REPORT} --baseline ${WORKDIR}/baseline.json
            --new ${WORKDIR}/regressed.json --check
    RESULT_VARIABLE r
    OUTPUT_QUIET
)
if(NOT r EQUAL 1)
    message(FATAL_ERROR "injected regression: expected exit 1, got ${r}")
endif()

# Without --check the regression is reported but the exit stays 0 —
# report mode never gates.
execute_process(
    COMMAND ${REPORT} --baseline ${WORKDIR}/baseline.json
            --new ${WORKDIR}/regressed.json
    RESULT_VARIABLE r
    OUTPUT_QUIET
)
if(NOT r EQUAL 0)
    message(FATAL_ERROR "report mode: expected exit 0, got ${r}")
endif()

# The machine-readable report parses and names the regressed metric.
execute_process(
    COMMAND ${REPORT} --baseline ${WORKDIR}/baseline.json
            --new ${WORKDIR}/regressed.json --json
    RESULT_VARIABLE r
    OUTPUT_VARIABLE report_json
)
if(NOT r EQUAL 0)
    message(FATAL_ERROR "--json report failed: ${r}")
endif()
string(JSON schema GET "${report_json}" schema)
if(NOT schema STREQUAL "espnuca-report-v1")
    message(FATAL_ERROR "unexpected report schema: ${schema}")
endif()
string(JSON regressions GET "${report_json}" regressions)
if(regressions LESS 2)
    message(FATAL_ERROR
            "expected both injected regressions flagged, got "
            "${regressions}:\n${report_json}")
endif()
string(FIND "${report_json}" "protocol.esp_nuca.ns_per_transaction"
       found)
if(found EQUAL -1)
    message(FATAL_ERROR
            "report does not name the regressed metric:\n${report_json}")
endif()

# A metric deleted from the new document still counts as a regression —
# the guard cannot be silenced by dropping what it guards.
file(WRITE ${WORKDIR}/missing.json [[
{
  "protocol": {
    "snuca": { "ns_per_transaction": 120.0 }
  },
  "throughput": { "points_per_sec": 50.0 }
}
]])
execute_process(
    COMMAND ${REPORT} --baseline ${WORKDIR}/baseline.json
            --new ${WORKDIR}/missing.json --check
    RESULT_VARIABLE r
    OUTPUT_QUIET
)
if(NOT r EQUAL 1)
    message(FATAL_ERROR "missing metric: expected exit 1, got ${r}")
endif()

# --only scopes the diff: restricted to the untouched snuca subtree the
# regressed document is clean.
execute_process(
    COMMAND ${REPORT} --baseline ${WORKDIR}/baseline.json
            --new ${WORKDIR}/regressed.json --check
            --only protocol.snuca
    RESULT_VARIABLE r
    OUTPUT_QUIET
)
if(NOT r EQUAL 0)
    message(FATAL_ERROR "--only scope: expected exit 0, got ${r}")
endif()

# perfbench names its throughput "refs_per_s": a name ending in
# "_per_s" is higher-better, so +30 % passes the 15 % gate and -20 %
# fails it (the CI bench-smoke guard depends on both).
file(WRITE ${WORKDIR}/e2e_base.json [[
{ "e2e": { "apache-esp": { "refs_per_s": 1000000 } } }
]])
file(WRITE ${WORKDIR}/e2e_faster.json [[
{ "e2e": { "apache-esp": { "refs_per_s": 1300000 } } }
]])
file(WRITE ${WORKDIR}/e2e_slower.json [[
{ "e2e": { "apache-esp": { "refs_per_s": 800000 } } }
]])
foreach(case "e2e_faster;0" "e2e_slower;1")
    list(GET case 0 doc)
    list(GET case 1 want)
    execute_process(
        COMMAND ${REPORT} --baseline ${WORKDIR}/e2e_base.json
                --new ${WORKDIR}/${doc}.json --check --threshold 15
                --only e2e.apache-esp.refs_per_s
        RESULT_VARIABLE r
        OUTPUT_QUIET
    )
    if(NOT r EQUAL want)
        message(FATAL_ERROR "${doc}: expected exit ${want}, got ${r}")
    endif()
endforeach()

# A guard over nothing must not pass: --check whose --only selects no
# baseline metric is a usage error (exit 2), not a clean diff.
execute_process(
    COMMAND ${REPORT} --baseline ${WORKDIR}/baseline.json
            --new ${WORKDIR}/regressed.json --check --only typo.prefix
    RESULT_VARIABLE r
    OUTPUT_QUIET
    ERROR_QUIET
)
if(NOT r EQUAL 2)
    message(FATAL_ERROR "empty --only selection: expected exit 2, got ${r}")
endif()

# --threshold must be a finite number >= 0, read in full: NaN would pass
# every delta, and a partial read ("abc" as 0) would gate on a number
# nobody gave.
foreach(bad nan inf -5 abc 15x "")
    execute_process(
        COMMAND ${REPORT} --baseline ${WORKDIR}/e2e_base.json
                --new ${WORKDIR}/e2e_slower.json --check --threshold "${bad}"
        RESULT_VARIABLE r
        OUTPUT_QUIET
        ERROR_QUIET
    )
    if(NOT r EQUAL 2)
        message(FATAL_ERROR "--threshold '${bad}': expected exit 2, got ${r}")
    endif()
endforeach()

file(REMOVE_RECURSE ${WORKDIR})
