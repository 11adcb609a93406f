# Runs BIN twice and fails if the two stdouts differ: a figure's printed
# numbers must not depend on wall-clock time (wall-clock readings go to
# stderr). Usage: cmake -DBIN=<binary> -P check_repeatable_stdout.cmake
foreach(_run 1 2)
  execute_process(COMMAND ${BIN} OUTPUT_VARIABLE _out_${_run}
                  RESULT_VARIABLE _rc)
  if(NOT _rc EQUAL 0)
    message(FATAL_ERROR "${BIN} exited with ${_rc} on run ${_run}")
  endif()
endforeach()
if(NOT _out_1 STREQUAL _out_2)
  message(FATAL_ERROR "${BIN} printed different stdout on two runs:\n"
                      "--- run 1\n${_out_1}--- run 2\n${_out_2}")
endif()
message(STATUS "${BIN}: stdout identical over two runs")
