# Runs detlint over testdata/ and checks the hot-path-alloc findings line by
# line: the plain and nothrow `new` lines must be reported, the placement
# `::new (ptr)` line and the `#include <new>` line must not.
#
#   cmake -DDETLINT=<binary> -DDATA=<testdata dir> -P expect_alloc_findings.cmake
execute_process(COMMAND ${DETLINT} ${DATA}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "expected detlint exit 1, got ${rc}:\n${out}${err}")
endif()
foreach(line 10 11)
  if(NOT err MATCHES "alloc_probe.hpp:${line}: \\[hot-path-alloc\\]")
    message(FATAL_ERROR "missing hot-path-alloc finding on line ${line}:\n${err}")
  endif()
endforeach()
foreach(line 7 9)
  if(err MATCHES "alloc_probe.hpp:${line}: ")
    message(FATAL_ERROR "unexpected finding on line ${line}:\n${err}")
  endif()
endforeach()
