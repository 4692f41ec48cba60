# End-to-end smoke for the train-once / serve-many CLI workflow:
#
#   retina generate      --out WORK/world
#   retina train-retweet --data WORK/world --save-model WORK/model
#   retina eval          --data WORK/world --model WORK/model
#   retina eval          ... --store-dir WORK/store   (tiered user store)
#
# and asserts the evaluated metrics line of the loaded model matches the
# training run's metrics character for character — the bit-exactness
# contract of the checkpoint layer, observed end to end through the CLI.
# The store-backed eval must reproduce the same line again: the disk tier
# returns the exact f64 bit patterns the in-process path computes.
#
# The training run also records a timeline (--trace-out) with a small
# RETINA_TRACE_BUFFER so the bounded-buffer path is exercised; the script
# asserts the Chrome trace parses and holds at least one complete event
# with nonzero duration. Metrics + trace are preserved in ${WORK_DIR}_outputs
# for the report_tool_smoke test and CI artifact upload.
#
# Run as:
#   cmake -DRETINA_CLI=<retina binary> -DWORK_DIR=<scratch dir> \
#         [-DOBS_COMPILED_OUT=ON] -P cli_e2e.cmake
#
# OBS_COMPILED_OUT=ON relaxes the trace/metrics content assertions for
# -DRETINA_OBS_DISABLED builds, where clocks, series, spans, and the
# tracer compile to nothing and the counters behind them (train.steps)
# stay zero. Counters that always count, such as serving.requests, are
# checked in every build.

if(NOT DEFINED RETINA_CLI)
  message(FATAL_ERROR "pass -DRETINA_CLI=<path to the retina binary>")
endif()
if(NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DWORK_DIR=<scratch directory>")
endif()
if(NOT DEFINED OBS_COMPILED_OUT)
  set(OBS_COMPILED_OUT OFF)
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${RETINA_CLI}" generate --out "${WORK_DIR}/world"
          --scale 0.05 --users 700 --seed 43
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed (${rc}):\n${out}\n${err}")
endif()

# A deliberately small RETINA_TRACE_BUFFER keeps the trace file cheap to
# parse below and exercises the drop-newest overflow path on a real run.
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env RETINA_TRACE_BUFFER=4096
          "${RETINA_CLI}" train-retweet --data "${WORK_DIR}/world"
          --seed 43 --save-model "${WORK_DIR}/model"
          "--metrics-out=${WORK_DIR}/train_metrics.json"
          "--trace-out=${WORK_DIR}/trace.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE train_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "train-retweet failed (${rc}):\n${train_out}\n${err}")
endif()
if(NOT EXISTS "${WORK_DIR}/model/model.ckpt")
  message(FATAL_ERROR "train-retweet did not write model/model.ckpt:\n${train_out}")
endif()

# ---- Observability contract: --metrics-out emits parseable JSON whose
# training counters actually counted the run (nonzero optimizer steps,
# nonzero serving requests, a per-epoch loss series).
if(NOT EXISTS "${WORK_DIR}/train_metrics.json")
  message(FATAL_ERROR "train-retweet did not write train_metrics.json:\n${train_out}")
endif()
file(READ "${WORK_DIR}/train_metrics.json" metrics_json)
if(OBS_COMPILED_OUT)
  # Compiled-out instrumentation still exports structurally valid JSON;
  # its series and the train.steps counter stay empty, so the content
  # assertions below do not apply.
  if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
    string(JSON _ ERROR_VARIABLE json_err LENGTH "${metrics_json}")
    if(NOT json_err STREQUAL "NOTFOUND")
      message(FATAL_ERROR "metrics JSON unparseable: ${json_err}")
    endif()
  endif()
  message(STATUS "obs compiled out: metrics/trace content checks skipped")
else()
  if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
    # string(JSON) is a real parser: any malformed export dies here.
    string(JSON train_steps ERROR_VARIABLE json_err
           GET "${metrics_json}" counters train.steps)
    if(NOT json_err STREQUAL "NOTFOUND")
      message(FATAL_ERROR "metrics JSON unparseable: ${json_err}\n${metrics_json}")
    endif()
    string(JSON serving_requests GET "${metrics_json}" counters
           serving.requests)
    string(JSON n_loss_points LENGTH "${metrics_json}" series
           train.epoch_loss)
    string(JSON peak_rss GET "${metrics_json}" gauges process.peak_rss_bytes)
  else()
    string(REGEX MATCH "\"train\\.steps\": ([0-9]+)" _ "${metrics_json}")
    set(train_steps "${CMAKE_MATCH_1}")
    string(REGEX MATCH "\"serving\\.requests\": ([0-9]+)" _ "${metrics_json}")
    set(serving_requests "${CMAKE_MATCH_1}")
    set(n_loss_points 1)
    set(peak_rss 1)
  endif()
  if(train_steps STREQUAL "" OR train_steps EQUAL 0)
    message(FATAL_ERROR "metrics JSON has no nonzero train.steps counter:\n${metrics_json}")
  endif()
  if(serving_requests STREQUAL "" OR serving_requests EQUAL 0)
    message(FATAL_ERROR "metrics JSON has no nonzero serving.requests counter:\n${metrics_json}")
  endif()
  if(n_loss_points EQUAL 0)
    message(FATAL_ERROR "metrics JSON has an empty train.epoch_loss series:\n${metrics_json}")
  endif()
  if(CMAKE_HOST_SYSTEM_NAME STREQUAL "Linux" AND
     (peak_rss STREQUAL "" OR peak_rss EQUAL 0))
    message(FATAL_ERROR "metrics JSON has no process.peak_rss_bytes gauge:\n${metrics_json}")
  endif()
  message(STATUS "metrics json ok: train.steps=${train_steps} "
          "serving.requests=${serving_requests} peak_rss=${peak_rss}")
endif()

# ---- Timeline tracer contract: --trace-out writes Chrome trace JSON with
# at least one complete ("X") event of nonzero duration. Only a bounded
# prefix of events is scanned — string(JSON) re-parses the whole document
# on every call.
if(NOT EXISTS "${WORK_DIR}/trace.json")
  message(FATAL_ERROR "train-retweet did not write trace.json:\n${train_out}")
endif()
if(NOT OBS_COMPILED_OUT AND CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  file(READ "${WORK_DIR}/trace.json" trace_json)
  string(JSON n_trace_events ERROR_VARIABLE json_err
         LENGTH "${trace_json}" traceEvents)
  if(NOT json_err STREQUAL "NOTFOUND")
    message(FATAL_ERROR "trace JSON unparseable: ${json_err}")
  endif()
  if(n_trace_events EQUAL 0)
    message(FATAL_ERROR "trace JSON holds no events")
  endif()
  string(JSON trace_capacity GET "${trace_json}" otherData buffer_capacity)
  if(NOT trace_capacity EQUAL 4096)
    message(FATAL_ERROR "RETINA_TRACE_BUFFER=4096 not honored: "
            "buffer_capacity=${trace_capacity}")
  endif()
  set(scan_max 199)
  if(n_trace_events LESS 200)
    math(EXPR scan_max "${n_trace_events} - 1")
  endif()
  set(found_complete FALSE)
  foreach(i RANGE 0 ${scan_max})
    string(JSON ph GET "${trace_json}" traceEvents ${i} ph)
    if(ph STREQUAL "X")
      string(JSON dur GET "${trace_json}" traceEvents ${i} dur)
      if(NOT dur MATCHES "^0(\\.0+)?$")
        set(found_complete TRUE)
        break()
      endif()
    endif()
  endforeach()
  if(NOT found_complete)
    message(FATAL_ERROR "no complete event with nonzero duration in the "
            "first ${scan_max} trace events")
  endif()
  message(STATUS "trace json ok: ${n_trace_events} events, "
          "buffer_capacity=${trace_capacity}")
endif()

execute_process(
  COMMAND "${RETINA_CLI}" eval --data "${WORK_DIR}/world"
          --model "${WORK_DIR}/model"
          "--metrics-out=${WORK_DIR}/eval_metrics.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE eval_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "eval failed (${rc}):\n${eval_out}\n${err}")
endif()
if(NOT EXISTS "${WORK_DIR}/eval_metrics.json")
  message(FATAL_ERROR "eval did not write eval_metrics.json:\n${eval_out}")
endif()
file(READ "${WORK_DIR}/eval_metrics.json" eval_metrics_json)
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  string(JSON eval_requests ERROR_VARIABLE json_err
         GET "${eval_metrics_json}" counters serving.requests)
  if(NOT json_err STREQUAL "NOTFOUND")
    message(FATAL_ERROR "eval metrics JSON unparseable: ${json_err}")
  endif()
  if(eval_requests STREQUAL "" OR eval_requests EQUAL 0)
    message(FATAL_ERROR "eval metrics JSON has no nonzero serving.requests")
  endif()
endif()

# ---- Tiered-store eval: the same eval, served through the disk-backed
# user feature store (--store-dir builds it on first use). Must reproduce
# the metrics line exactly — end-to-end bit-identity of the tiered read
# path — and, with obs compiled in, its metrics export must show the store
# tier actually serving lookups.
execute_process(
  COMMAND "${RETINA_CLI}" eval --data "${WORK_DIR}/world"
          --model "${WORK_DIR}/model"
          --store-dir "${WORK_DIR}/store"
          "--metrics-out=${WORK_DIR}/store_metrics.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE store_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "eval --store-dir failed (${rc}):\n${store_out}\n${err}")
endif()
if(NOT EXISTS "${WORK_DIR}/store/blocks.dat" OR
   NOT EXISTS "${WORK_DIR}/store/index.ckpt")
  message(FATAL_ERROR "eval --store-dir did not build the store:\n${store_out}")
endif()
if(NOT EXISTS "${WORK_DIR}/store_metrics.json")
  message(FATAL_ERROR "eval --store-dir did not write store_metrics.json:\n${store_out}")
endif()
if(NOT OBS_COMPILED_OUT AND CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  file(READ "${WORK_DIR}/store_metrics.json" store_metrics_json)
  string(JSON store_hits ERROR_VARIABLE json_err
         GET "${store_metrics_json}" counters store.tier.hits)
  if(NOT json_err STREQUAL "NOTFOUND")
    message(FATAL_ERROR "store metrics JSON unparseable: ${json_err}")
  endif()
  if(store_hits STREQUAL "" OR store_hits EQUAL 0)
    message(FATAL_ERROR "store-backed eval recorded no store.tier.hits:\n${store_metrics_json}")
  endif()
  message(STATUS "store metrics json ok: store.tier.hits=${store_hits}")
endif()

# "macro-F1 ... HITS@20 x.yyy" appears in both outputs; the loaded model
# must reproduce it exactly.
set(metrics_re "macro-F1 [^\n]*HITS@20 +[0-9.]+")
string(REGEX MATCH "${metrics_re}" train_metrics "${train_out}")
string(REGEX MATCH "${metrics_re}" eval_metrics "${eval_out}")
string(REGEX MATCH "${metrics_re}" store_eval_metrics "${store_out}")
if(train_metrics STREQUAL "")
  message(FATAL_ERROR "no metrics line in train output:\n${train_out}")
endif()
if(NOT train_metrics STREQUAL eval_metrics)
  message(FATAL_ERROR "loaded model diverged from training run:\n"
          "  trained: ${train_metrics}\n  loaded:  ${eval_metrics}")
endif()
if(NOT train_metrics STREQUAL store_eval_metrics)
  message(FATAL_ERROR "store-backed eval diverged from training run:\n"
          "  trained: ${train_metrics}\n  store:   ${store_eval_metrics}")
endif()

# Preserve the observability outputs for report_tool_smoke (FIXTURES_SETUP
# in tests/CMakeLists.txt) and for CI artifact upload, then drop the bulky
# world/model scratch.
file(REMOVE_RECURSE "${WORK_DIR}_outputs")
file(MAKE_DIRECTORY "${WORK_DIR}_outputs")
file(COPY "${WORK_DIR}/train_metrics.json" "${WORK_DIR}/eval_metrics.json"
     "${WORK_DIR}/store_metrics.json" "${WORK_DIR}/trace.json"
     DESTINATION "${WORK_DIR}_outputs")

file(REMOVE_RECURSE "${WORK_DIR}")
message(STATUS "cli e2e smoke passed: ${eval_metrics}")
