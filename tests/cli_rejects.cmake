# Runs cbip-stats and cbip-verify on malformed input and requires each
# invocation to exit with code 2 and a diagnostic on stderr: no uncaught
# exception (SIGABRT), no silent wrap of a negative number to ~2^64.
# Only rejections are exercised; no case starts a run.
#
#   cmake -DSTATS=<cbip-stats> -DVERIFY=<cbip-verify> -P cli_rejects.cmake
set(cases
  # Non-numeric, negative and out-of-range numbers.
  "${STATS}|--n|abc"
  "${STATS}|--seed|x"
  "${STATS}|--steps|-1"
  "${STATS}|--shards|-2"
  "${STATS}|--n|99999999999"
  "${STATS}|--steps|18446744073709551616"
  "${VERIFY}|--model|philosophers|--n|-3"
  "${VERIFY}|--model|philosophers|--workers|1x"
  # Sizes the model families or the engines reject.
  "${STATS}|--n|0"
  "${STATS}|--engine|sharded|--shards|0"
  "${VERIFY}|--model|tokenring|--n|1"
  "${VERIFY}|--model|skewed|--n|0")
set(failures 0)
foreach(case IN LISTS cases)
  # Each case is one list element with '|' between its arguments.
  string(REPLACE "|" ";" argv "${case}")
  # A rejection is immediate; the timeout stops a regressed binary that
  # took a bad value and started a run.
  execute_process(COMMAND ${argv} TIMEOUT 20
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(REPLACE "|" " " shown "${case}")
  if(NOT rc STREQUAL "2")
    message(SEND_ERROR "expected exit 2, got '${rc}': ${shown}\n${err}")
    math(EXPR failures "${failures} + 1")
  elseif(err STREQUAL "")
    message(SEND_ERROR "exit 2 without a diagnostic on stderr: ${shown}")
    math(EXPR failures "${failures} + 1")
  else()
    string(STRIP "${err}" err)
    message(STATUS "ok (exit 2): ${shown}: ${err}")
  endif()
endforeach()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} malformed invocation(s) not rejected with exit 2")
endif()
