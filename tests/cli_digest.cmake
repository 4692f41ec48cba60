# Smoke for `retina digest`, the training digest: on a small generated
# world it trains every RETINA head and fits both cascade baselines at 1
# and at 4 threads. It must exit 0, which it does only when every
# configuration's hashes agree across the two thread counts, and end with
# one DIGEST line.
#
# Run as:
#   cmake -DRETINA_CLI=<retina binary> -DWORK_DIR=<scratch dir> \
#         -P cli_digest.cmake

if(NOT DEFINED RETINA_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DRETINA_CLI=<binary> and -DWORK_DIR=<dir>")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${RETINA_CLI}" generate --out "${WORK_DIR}/world"
          --scale 0.02 --users 200 --seed 43
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed (${rc}):\n${out}\n${err}")
endif()

execute_process(
  COMMAND "${RETINA_CLI}" digest --data "${WORK_DIR}/world" --seed 43
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "digest failed (${rc}):\n${out}\n${err}")
endif()
string(REGEX MATCH "\nDIGEST [0-9a-f]+\n$" digest_line "${out}")
if(digest_line STREQUAL "")
  message(FATAL_ERROR "digest printed no final DIGEST line:\n${out}")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
string(STRIP "${digest_line}" digest_line)
message(STATUS "cli digest smoke passed: ${digest_line}")
