# Golden snapshot check: `COMMAND [ARGS...]` must print exactly the
# checked-in golden. Run as
#   cmake -DCOMMAND=<binary> [-DARGS=<a;b>] -DGOLDEN=<golden>
#         -DACTUAL=<scratch> -P this
# tools/CMakeLists.txt (for the xqlint plan goldens) and the header comment
# of each other golden's generator say how to regenerate it after an
# intended change.
execute_process(
  COMMAND ${COMMAND} ${ARGS}
  OUTPUT_FILE ${ACTUAL}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${COMMAND} exited with ${rc}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${ACTUAL}
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
    "golden drift: ${ACTUAL} differs from ${GOLDEN}; diff them")
endif()
