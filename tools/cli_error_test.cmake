# Bad-input check for a tool (SIM): run it with ARGS (space-separated;
# the token %WORKDIR% names a fresh directory, empty unless TRACE gives
# the one line of its core0.trace, and %FILE% an empty regular file)
# under the optional ENV assignment, and require exit code 2 plus an
# error on stderr matching EXPECT.
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
if(TRACE)
    file(WRITE ${WORKDIR}/core0.trace "${TRACE}\n")
endif()
file(WRITE ${WORKDIR}.file "")
string(REPLACE "%FILE%" "${WORKDIR}.file" args "${ARGS}")
string(REPLACE "%WORKDIR%" "${WORKDIR}" args "${args}")
separate_arguments(args UNIX_COMMAND "${args}")
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${ENV} ${SIM} ${args}
    RESULT_VARIABLE r
    ERROR_VARIABLE err
    OUTPUT_QUIET
)
if(NOT r EQUAL 2)
    message(FATAL_ERROR "expected exit code 2, got ${r}: ${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
    message(FATAL_ERROR "stderr does not match '${EXPECT}': ${err}")
endif()
file(REMOVE_RECURSE ${WORKDIR} ${WORKDIR}.file)
