# Asserts a CLI-contract error path: non-zero exit plus exactly one
# `<tool>: error: ...` diagnostic line on stderr. PREFIX defaults to the
# netpp_cli contract; netpp_serve's error tests pass their own.
#
# Usage: cmake -DCLI=<path> -DCLI_ARGS=<semicolon-list> -DPATTERN=<regex>
#              [-DPREFIX=<literal>] [-DEXIT_CODE=<n>] -P expect_cli_error.cmake
#
# EXIT_CODE, when given, must match the exit status exactly.
if(NOT DEFINED CLI OR NOT DEFINED CLI_ARGS OR NOT DEFINED PATTERN)
  message(FATAL_ERROR "expect_cli_error.cmake needs CLI, CLI_ARGS, PATTERN")
endif()
if(NOT DEFINED PREFIX)
  set(PREFIX "netpp_cli: error: ")
endif()

execute_process(
  COMMAND ${CLI} ${CLI_ARGS}
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE stdout_text
  ERROR_VARIABLE stderr_text
)

if(exit_code EQUAL 0)
  message(FATAL_ERROR
    "expected a non-zero exit from: ${CLI} ${CLI_ARGS}\nstderr: ${stderr_text}")
endif()
if(DEFINED EXIT_CODE AND NOT exit_code STREQUAL EXIT_CODE)
  message(FATAL_ERROR
    "expected exit ${EXIT_CODE}, got ${exit_code} from: ${CLI} ${CLI_ARGS}\n"
    "stderr: ${stderr_text}")
endif()
string(FIND "${stderr_text}" "${PREFIX}" prefix_at)
if(prefix_at EQUAL -1)
  message(FATAL_ERROR
    "expected a '${PREFIX}' diagnostic, got: ${stderr_text}")
endif()
if(NOT stderr_text MATCHES "${PATTERN}")
  message(FATAL_ERROR
    "stderr does not match '${PATTERN}': ${stderr_text}")
endif()
# One-line contract: a single trailing newline and no embedded ones.
string(REGEX REPLACE "\n$" "" trimmed "${stderr_text}")
if(trimmed MATCHES "\n")
  message(FATAL_ERROR "expected a one-line diagnostic, got: ${stderr_text}")
endif()
