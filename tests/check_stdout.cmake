# Runs one paper-reproduction binary and compares its stdout byte for byte
# with the committed copy (see tests/data/README.md).
#
#   cmake -DBINARY=<exe> -DARGS="<space-separated args>" \
#         -DEXPECTED=<committed .stdout> -DACTUAL=<scratch file> \
#         -P tests/check_stdout.cmake
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BINARY} ${arg_list}
                OUTPUT_FILE ${ACTUAL}
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BINARY} ${ARGS} exited with ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${EXPECTED} ${ACTUAL}
                RESULT_VARIABLE differ)
if(differ)
  message(FATAL_ERROR "stdout of ${BINARY} ${ARGS} differs from ${EXPECTED}; "
                      "run `diff ${EXPECTED} ${ACTUAL}` to see the change")
endif()
