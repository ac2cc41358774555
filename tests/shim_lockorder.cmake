# ctest script for the lock-order prediction of examples/vanilla_dining.cpp
# under the shim (cmake -P):
#
#   cmake -DHOST=<example_vanilla_dining> -DSHIM=<librobmon_preload.so>
#         -P tests/shim_lockorder.cmake
#
# Runs the host's "rotated" and "rotated-trylock" modes with LD_PRELOAD of
# the shim at its default cadences.  One thread takes fork 0 then fork 1,
# and only after it has released both does another take fork 1 then fork 0
# (its outer fork by pthread_mutex_trylock in the second mode), so the run
# never deadlocks.  Each run must exit 0, print exactly one two-monitor
# lock-order warning whose ticket numbers stay short enough to read, and
# report deadlocks=0.
foreach(var HOST SHIM)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "shim_lockorder.cmake: -D${var}=... is required")
  endif()
endforeach()

foreach(mode rotated rotated-trylock)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env LD_PRELOAD=${SHIM}
                          ${HOST} ${mode}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 20)
  message(STATUS "${mode} (exit ${rc}):\n${out}${err}")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${mode}: host failed under the shim: ${rc}")
  endif()
  string(REGEX MATCHALL
         "lock-order warning: potential deadlock \\(lock-order cycle, 2 monitors\\)"
         warnings "${err}")
  list(LENGTH warnings count)
  if(NOT count EQUAL 1)
    message(FATAL_ERROR "${mode}: expected one lock-order warning, got ${count}")
  endif()
  if(err MATCHES "t#[0-9][0-9][0-9][0-9][0-9][0-9][0-9]")
    message(FATAL_ERROR "${mode}: a ticket number runs past six digits")
  endif()
  if(NOT err MATCHES "summary monitors=[0-9]+ faults=[0-9]+ deadlocks=0 ")
    message(FATAL_ERROR "${mode}: the shim did not report deadlocks=0")
  endif()
endforeach()
