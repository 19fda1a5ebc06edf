# expect_joined.cmake - require a multi-figure paper_figures run to print
# exactly its one-figure runs, in order, joined by one blank line.
#
#   cmake -DBIN=<paper_figures> -DFIGURES=fig6,fig10 [-DARGS=--scale=0.02] \
#         -P bench/expect_joined.cmake
#
# FIGURES lists the figures in paper order; ARGS is a semicolon-separated
# flag list given to every run. Fails (FATAL_ERROR) on a nonzero exit or
# any difference.

cmake_minimum_required(VERSION 3.16)

foreach(Var BIN FIGURES)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "pass -D${Var}=...")
  endif()
endforeach()

function(run_figures Out Figures)
  execute_process(COMMAND "${BIN}" "--figure=${Figures}" ${ARGS}
    RESULT_VARIABLE Result
    OUTPUT_VARIABLE Output)
  if(NOT Result EQUAL 0)
    message(FATAL_ERROR "${BIN} --figure=${Figures} exited ${Result}")
  endif()
  set(${Out} "${Output}" PARENT_SCOPE)
endfunction()

run_figures(Joined "${FIGURES}")
string(REPLACE "," ";" FigureList "${FIGURES}")
set(Expected "")
set(Separator "")
foreach(Figure IN LISTS FigureList)
  run_figures(One "${Figure}")
  string(APPEND Expected "${Separator}${One}")
  set(Separator "\n")
endforeach()

if(NOT Joined STREQUAL Expected)
  message(FATAL_ERROR "--figure=${FIGURES} does not print its one-figure "
                      "runs joined by a blank line:\n${Joined}\n"
                      "expected:\n${Expected}")
endif()
message(STATUS "--figure=${FIGURES} is its one-figure runs, joined")
