# Runs BIN with the single argument ARG and fails unless it exits with
# EXPECT. Used by the strict-flag ctest cases (bench/CMakeLists.txt): a bad
# value or an unknown flag must exit 2 at once, not run a default sweep.
execute_process(COMMAND ${BIN} ${ARG} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err TIMEOUT 60)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${BIN} ${ARG}: exit '${rc}', expected ${EXPECT}\n${err}")
endif()
if(NOT err MATCHES "error:")
  message(FATAL_ERROR "${BIN} ${ARG}: no diagnostic on stderr")
endif()
