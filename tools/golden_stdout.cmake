# Run one command (smactl, an example) and require its stdout to equal a
# golden file byte for byte:
#   cmake -DEXE=<program> -DARGS="<args>" -DGOLDEN=<file> -P golden_stdout.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} ${ARGS} exited ${rc}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT out STREQUAL expected)
  message(FATAL_ERROR "stdout of ${EXE} ${ARGS} differs from ${GOLDEN}:\n"
                      "got:\n${out}expected:\n${expected}")
endif()
