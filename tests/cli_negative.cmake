# Negative CLI cases: unknown flags and subcommands, and thread-count
# flags with a bad value, must exit nonzero with a one-line Status message
# on stderr ("InvalidArgument: ..."), never a silent full-usage dump with
# exit 0 — scripts and CI pipelines depend on the exit code, and the
# one-liner keeps the actual mistake visible instead of burying it under
# the usage text. The bad-value cases name a nonexistent world or target,
# so a binary that let the value through fails to load or connect before
# it creates an engine or a thread.
#
# Run as:
#   cmake -DRETINA_CLI=<retina> -DRETINA_SERVE=<retina_serve>
#         -DLOAD_DRIVER=<load_driver>
#         -DMODE=flag|command|serve_flag|serve_workers_negative|
#                serve_workers_garbage|driver_connections_huge
#         -P cli_negative.cmake

if(NOT DEFINED RETINA_CLI OR NOT DEFINED MODE)
  message(FATAL_ERROR "pass -DRETINA_CLI=<binary> and -DMODE=<case>")
endif()

set(expect "InvalidArgument: unknown")
if(MODE STREQUAL "flag")
  set(cmd "${RETINA_CLI}" eval --data /nonexistent --no-such-flag)
elseif(MODE STREQUAL "command")
  set(cmd "${RETINA_CLI}" frobnicate)
elseif(MODE MATCHES "^serve_")
  if(NOT DEFINED RETINA_SERVE)
    message(FATAL_ERROR "pass -DRETINA_SERVE=<binary> for MODE=${MODE}")
  endif()
  set(serve "${RETINA_SERVE}" --data /nonexistent/world
      --model /nonexistent/model --socket /nonexistent/retina.sock)
  if(MODE STREQUAL "serve_flag")
    set(cmd "${RETINA_SERVE}" --no-such-flag)
  elseif(MODE STREQUAL "serve_workers_negative")
    set(cmd ${serve} --workers -1)
    set(expect "InvalidArgument: --workers")
  elseif(MODE STREQUAL "serve_workers_garbage")
    set(cmd ${serve} --workers abc)
    set(expect "InvalidArgument: --workers")
  else()
    message(FATAL_ERROR "unknown MODE '${MODE}'")
  endif()
elseif(MODE STREQUAL "driver_connections_huge")
  if(NOT DEFINED LOAD_DRIVER)
    message(FATAL_ERROR "pass -DLOAD_DRIVER=<binary> for MODE=${MODE}")
  endif()
  set(cmd "${LOAD_DRIVER}" --connect unix:/nonexistent/retina.sock
      --connections 100000)
  set(expect "InvalidArgument: --connections")
else()
  message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()

execute_process(COMMAND ${cmd}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "MODE=${MODE}: expected a nonzero exit, got 0:\n${out}\n${err}")
endif()
if(NOT err MATCHES "${expect}")
  message(FATAL_ERROR "MODE=${MODE}: stderr lacks the one-line Status "
          "message:\n${err}")
endif()
# One line means one line: the usage dump must not ride along.
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines n_lines)
if(n_lines GREATER 2)
  message(FATAL_ERROR "MODE=${MODE}: stderr is ${n_lines} lines, wanted a "
          "one-line rejection:\n${err}")
endif()
message(STATUS "MODE=${MODE} rejected correctly: rc=${rc}")
