# Runs COMMAND (a ;-list) and fails unless it exits 2 and prints usage: the
# CLI contract for a malformed option value.
#
#   cmake -DCOMMAND="<binary>;<args...>" -P expect_usage_error.cmake
execute_process(COMMAND ${COMMAND}
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT exit_code EQUAL 2)
  message(FATAL_ERROR "expected exit 2, got '${exit_code}'\n${out}${err}")
endif()
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR "expected usage on stderr, got:\n${err}")
endif()
