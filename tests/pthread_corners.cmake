# ctest script for examples/pthread_corners.cpp (cmake -P):
#
#   cmake -DHOST=<example_pthread_corners> -DSHIM=<librobmon_preload.so>
#         -P tests/pthread_corners.cmake
#
# Runs the host without and with LD_PRELOAD of the shim.  Both runs must
# exit 0 within the timeout and print the same return codes, and the shim's
# stderr summary must report faults=0.  A shim that blocks where libc
# returns (EOWNERDEAD from a robust mutex whose owner died) shows up as a
# timeout here instead of a hung test run.
foreach(var HOST SHIM)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pthread_corners.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(COMMAND ${HOST}
                RESULT_VARIABLE plain_rc
                OUTPUT_VARIABLE plain_out
                ERROR_VARIABLE plain_err
                TIMEOUT 20)
execute_process(COMMAND ${CMAKE_COMMAND} -E env LD_PRELOAD=${SHIM} ${HOST}
                RESULT_VARIABLE shim_rc
                OUTPUT_VARIABLE shim_out
                ERROR_VARIABLE shim_err
                TIMEOUT 20)
message(STATUS "without the shim (exit ${plain_rc}):\n${plain_out}${plain_err}")
message(STATUS "with the shim (exit ${shim_rc}):\n${shim_out}${shim_err}")

if(NOT plain_rc EQUAL 0)
  message(FATAL_ERROR "host failed without the shim: ${plain_rc}")
endif()
if(NOT shim_rc EQUAL 0)
  message(FATAL_ERROR "host failed under the shim: ${shim_rc}")
endif()
if(NOT plain_out STREQUAL shim_out)
  message(FATAL_ERROR "return codes differ under the shim")
endif()
if(NOT shim_err MATCHES "summary monitors=[0-9]+ faults=0 ")
  message(FATAL_ERROR "the shim did not report a zero-fault summary")
endif()
