# expect_exit.cmake - run a command and require its exit code.
#
#   cmake -DEXPECT_EXIT=<code> [-DEXPECT_OUTPUT=<regex>] \
#         [-DOUTPUT_FILE=<path>] -P examples/expect_exit.cmake -- <command> \
#         [args...]
#
# Fails (FATAL_ERROR) unless the command exits with EXPECT_EXIT and, when
# EXPECT_OUTPUT is non-empty, its stdout matches that regular expression. The
# ccsim_cli exit-code ctests use it: PASS_REGULAR_EXPRESSION alone would
# ignore the exit code, and WILL_FAIL cannot tell 1 (usage) from 2
# (runtime). OUTPUT_FILE also saves the stdout there, for a later
# `cmake -E compare_files` against another run.

cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED EXPECT_EXIT)
  message(FATAL_ERROR "pass -DEXPECT_EXIT=<code>")
endif()

# Everything after "--" is the command.
set(Command)
set(AfterSeparator FALSE)
math(EXPR LastArg "${CMAKE_ARGC} - 1")
foreach(I RANGE ${LastArg})
  if(AfterSeparator)
    list(APPEND Command "${CMAKE_ARGV${I}}")
  elseif("${CMAKE_ARGV${I}}" STREQUAL "--")
    set(AfterSeparator TRUE)
  endif()
endforeach()
if(NOT Command)
  message(FATAL_ERROR "no command after --")
endif()

execute_process(COMMAND ${Command}
  RESULT_VARIABLE Result
  OUTPUT_VARIABLE Output)
message("${Output}")
if(OUTPUT_FILE)
  file(WRITE "${OUTPUT_FILE}" "${Output}")
endif()
if(NOT "${Result}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exited ${Result}, expected ${EXPECT_EXIT}: ${Command}")
endif()
if(EXPECT_OUTPUT AND NOT Output MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match '${EXPECT_OUTPUT}': ${Command}")
endif()
