# Runs one bench binary with a bad command line and passes only when it
# exits 2 and prints the usage text: a malformed flag must fail loudly,
# never run with a silently truncated value.
#
#   cmake -DBENCH=<binary> "-DARGS=<flag> <value>" -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BENCH} ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${BENCH} ${ARGS}: exit ${rc}, expected 2\n${out}${err}")
endif()
if(NOT err MATCHES "usage: ")
  message(FATAL_ERROR "${BENCH} ${ARGS}: no usage text on stderr\n${err}")
endif()
