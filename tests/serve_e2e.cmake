# End-to-end smoke for the serving daemon:
#
#   retina generate       --out WORK/world
#   retina train-retweet  --data WORK/world --save-model WORK/model
#   retina_serve          --data ... --socket ... --listen 127.0.0.1:0
#                         (background; a dead file is planted at the
#                          socket path first to pin stale recovery)
#   load_driver           --verify-data/--verify-model + QPS sweep, once
#                         over the Unix socket and once over TCP loopback
#   load_driver (bg) + retina_top --once
#                         a third, unverified driver runs in the
#                         background while retina_top polls kMetrics and
#                         must report nonzero qps
#   kill -TERM            (graceful drain)
#   check_prom.py / report.py
#                         validate the --prom-out exposition and render
#                         the merged client+server trace report
#
# and asserts the whole serving contract end to end, across processes:
#
#   - a stale socket file from a SIGKILL'd prior run is connect-probed
#     and reclaimed ("removing stale socket file" logged), not a bind
#     failure;
#   - load_driver's --verify pass requires every daemon score to be
#     byte-identical to the same bundle loaded in-process — over BOTH
#     transports (the kernel-assigned TCP port is parsed from the
#     daemon's "serving on ... tcp port N" line);
#   - the sweep (>= 3 QPS points, >= 4 connections) completes with zero
#     dropped requests — a request is either answered or shed at
#     admission, never silently lost;
#   - retina_top --once, polled against the live daemon under background
#     load, derives a nonzero QPS from two kMetrics snapshots (and, with
#     obs compiled in, a nonzero windowed handle p99);
#   - SIGTERM drains: the daemon exits on its own, logs the drain, and
#     writes --metrics-out, --trace-out, and --prom-out before exiting;
#     the drain-time --metrics-out export has serve.requests ==
#     serve.responses, in every build;
#   - the Prometheus exposition passes tools/check_prom.py, including the
#     retina_serve_handle_ns histogram family;
#   - report.py merges the driver's --trace-out with the daemon's and,
#     with obs compiled in, pairs at least one trace id across both
#     files (cross-process propagation observed end to end);
#   - BENCH_serve.json / BENCH_serve_tcp.json parse, carry the coalesce
#     observability block and transport label, and land in
#     ${WORK_DIR}_outputs for the report tooling and CI artifact upload.
#
# The daemon's socket lives under /tmp, not under WORK_DIR: sockaddr_un's
# sun_path caps paths at ~107 bytes and CI build trees run deeper.
#
# Run as:
#   cmake -DRETINA_CLI=<retina> -DRETINA_SERVE=<retina_serve>
#         -DLOAD_DRIVER=<load_driver> -DRETINA_TOP=<retina_top>
#         -DWORK_DIR=<scratch dir>
#         [-DOBS_COMPILED_OUT=ON] -P serve_e2e.cmake
#
# OBS_COMPILED_OUT=ON relaxes only the assertions on windowed quantiles
# and trace pairing (histograms and spans compile to nothing). Counters and
# gauges count in every build, so the protocol, drain, and drain-time
# metrics assertions hold regardless.

if(NOT DEFINED RETINA_CLI)
  message(FATAL_ERROR "pass -DRETINA_CLI=<path to the retina binary>")
endif()
if(NOT DEFINED RETINA_SERVE)
  message(FATAL_ERROR "pass -DRETINA_SERVE=<path to the retina_serve binary>")
endif()
if(NOT DEFINED LOAD_DRIVER)
  message(FATAL_ERROR "pass -DLOAD_DRIVER=<path to the load_driver binary>")
endif()
if(NOT DEFINED RETINA_TOP)
  message(FATAL_ERROR "pass -DRETINA_TOP=<path to the retina_top binary>")
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

execute_process(
  COMMAND "${RETINA_CLI}" train-retweet --data "${WORK_DIR}/world"
          --seed 43 --save-model "${WORK_DIR}/model"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "train-retweet failed (${rc}):\n${out}\n${err}")
endif()
if(NOT EXISTS "${WORK_DIR}/model/model.ckpt")
  message(FATAL_ERROR "train-retweet did not write model/model.ckpt:\n${out}")
endif()

# ---- Start the daemon in the background (sh backgrounding: CMake has no
# native detach). Its pid comes back through the pipe; stdout/stderr land
# in serve.log for the drain assertion below.
#
# The daemon listens on BOTH transports: the Unix socket and a TCP
# loopback port the kernel picks (--listen 127.0.0.1:0); the bound port
# is parsed out of serve.log below and driven as a second verify pass.
#
# Pinned stale-socket recovery: a dead file is planted at the socket path
# first, simulating a SIGKILL'd prior run. The daemon must connect-probe
# it, find nobody answering, unlink it, and bind — not fail the bind.
string(RANDOM LENGTH 8 ALPHABET "abcdefghijklmnopqrstuvwxyz0123456789" tag)
set(SOCKET "/tmp/retina_e2e_${tag}.sock")
file(WRITE "${SOCKET}" "stale leftover from a killed run")
execute_process(
  COMMAND sh -c "exec '${RETINA_SERVE}' \
      --data '${WORK_DIR}/world' --model '${WORK_DIR}/model' \
      --socket '${SOCKET}' --listen 127.0.0.1:0 \
      --workers 4 --queue-capacity 128 --metrics-tick 32 \
      --metrics-out '${WORK_DIR}/serve_metrics.json' \
      --trace-out '${WORK_DIR}/serve_trace.json' \
      --prom-out '${WORK_DIR}/serve.prom' \
      > '${WORK_DIR}/serve.log' 2>&1 & echo $!"
  RESULT_VARIABLE rc OUTPUT_VARIABLE serve_pid ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "failed to launch retina_serve (${rc}): ${err}")
endif()
string(STRIP "${serve_pid}" serve_pid)

# The daemon loads the world + bundle before binding. The stale file
# planted above means the socket path EXISTS from the start, so readiness
# is the daemon's own "serving on" line — printed only after both
# listeners are bound — which also carries the kernel-assigned TCP port.
set(socket_up FALSE)
foreach(i RANGE 150)
  if(EXISTS "${WORK_DIR}/serve.log")
    file(READ "${WORK_DIR}/serve.log" serve_log)
    if(serve_log MATCHES "serving on")
      set(socket_up TRUE)
      break()
    endif()
  endif()
  execute_process(COMMAND sh -c "kill -0 ${serve_pid} 2>/dev/null"
                  RESULT_VARIABLE alive)
  if(NOT alive EQUAL 0)
    file(READ "${WORK_DIR}/serve.log" serve_log)
    message(FATAL_ERROR "retina_serve exited before binding:\n${serve_log}")
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 0.2)
endforeach()
if(NOT socket_up)
  file(READ "${WORK_DIR}/serve.log" serve_log)
  message(FATAL_ERROR "daemon never reported serving on ${SOCKET}:\n${serve_log}")
endif()
if(NOT EXISTS "${SOCKET}")
  message(FATAL_ERROR "daemon is serving but the socket file is missing:\n${serve_log}")
endif()

# The stale file must have been reclaimed by the connect-probe path, not
# silently bound over or fatally tripped on.
if(NOT serve_log MATCHES "removing stale socket file")
  message(FATAL_ERROR "daemon did not log the stale-socket recovery:\n${serve_log}")
endif()

# Kernel-assigned TCP port, parsed from the same "serving on" line.
if(NOT serve_log MATCHES "tcp port ([0-9]+)")
  message(FATAL_ERROR "daemon did not report its TCP port:\n${serve_log}")
endif()
set(TCP_PORT "${CMAKE_MATCH_1}")
if(TCP_PORT EQUAL 0)
  message(FATAL_ERROR "daemon reported TCP port 0:\n${serve_log}")
endif()

# ---- Drive it: cross-process byte-identity first (--verify-*), then the
# open-loop sweep — 3 QPS points, 4 concurrent connections.
execute_process(
  COMMAND "${LOAD_DRIVER}" --socket "${SOCKET}" --smoke
          --qps 30,60,120 --requests 48 --connections 4 --seed 7
          --verify-data "${WORK_DIR}/world" --verify-model "${WORK_DIR}/model"
          --out "${WORK_DIR}/BENCH_serve.json"
          "--metrics-out=${WORK_DIR}/driver_metrics.json"
          "--trace-out=${WORK_DIR}/driver_trace.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE driver_out ERROR_VARIABLE driver_err)
if(NOT rc EQUAL 0)
  file(READ "${WORK_DIR}/serve.log" serve_log)
  message(FATAL_ERROR "load_driver failed (${rc}):\n${driver_out}\n"
          "${driver_err}\nserver log:\n${serve_log}")
endif()
if(NOT driver_out MATCHES "byte-identical to the in-process engine")
  message(FATAL_ERROR "load_driver did not run the verify pass:\n${driver_out}")
endif()

# ---- Same daemon, second transport: the TCP loopback listener must pass
# the identical cross-process byte-identity bar and a small sweep, into
# its own bench file (CI uploads both variants as distinct artifacts).
execute_process(
  COMMAND "${LOAD_DRIVER}" --connect "tcp:127.0.0.1:${TCP_PORT}" --smoke
          --qps 30,60,120 --requests 48 --connections 4 --seed 11
          --verify-data "${WORK_DIR}/world" --verify-model "${WORK_DIR}/model"
          --out "${WORK_DIR}/BENCH_serve_tcp.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE tcp_out ERROR_VARIABLE tcp_err)
if(NOT rc EQUAL 0)
  file(READ "${WORK_DIR}/serve.log" serve_log)
  message(FATAL_ERROR "load_driver over TCP failed (${rc}):\n${tcp_out}\n"
          "${tcp_err}\nserver log:\n${serve_log}")
endif()
if(NOT tcp_out MATCHES "byte-identical to the in-process engine")
  message(FATAL_ERROR "TCP leg did not run the verify pass:\n${tcp_out}")
endif()

# ---- Live monitoring: a third driver runs in the background (no
# --verify, so it starts sending immediately; no --smoke, so the request
# budget is not clamped) while retina_top --once takes two kMetrics
# snapshots one second apart. The derived QPS must be nonzero — this is
# the whole point of the monitor, and it rests on the serve.* counters,
# which count in every build, so it holds with obs compiled out too.
execute_process(
  COMMAND sh -c "( '${LOAD_DRIVER}' --socket '${SOCKET}' \
      --qps 40 --requests 200 --connections 2 --seed 13 \
      --out '${WORK_DIR}/BENCH_top_load.json' \
      > '${WORK_DIR}/top_driver.log' 2>&1; \
      echo $? > '${WORK_DIR}/top_rc' ) > /dev/null 2>&1 & echo $!"
  RESULT_VARIABLE rc OUTPUT_VARIABLE top_driver_pid ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "failed to launch the background driver (${rc}): ${err}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 1)
execute_process(
  COMMAND "${RETINA_TOP}" --socket "${SOCKET}" --once
  RESULT_VARIABLE rc OUTPUT_VARIABLE top_out ERROR_VARIABLE top_err)
if(NOT rc EQUAL 0)
  file(READ "${WORK_DIR}/serve.log" serve_log)
  message(FATAL_ERROR "retina_top --once failed (${rc}):\n${top_out}\n"
          "${top_err}\nserver log:\n${serve_log}")
endif()
file(WRITE "${WORK_DIR}/top_once.txt" "${top_out}")
if(NOT top_out MATCHES "qps ([0-9]+\\.[0-9]+)")
  message(FATAL_ERROR "retina_top --once printed no qps line:\n${top_out}")
endif()
set(top_qps "${CMAKE_MATCH_1}")
if(top_qps STREQUAL "0.000")
  message(FATAL_ERROR "retina_top saw no traffic under background load:\n${top_out}")
endif()
if(NOT OBS_COMPILED_OUT)
  # The 32-request metrics cadence has ticked by now, so the windowed
  # handle p99 must be live (nonzero leading digit).
  if(NOT top_out MATCHES "handle_ns_window_p99 [1-9]")
    message(FATAL_ERROR "retina_top --once has no live windowed p99:\n${top_out}")
  endif()
endif()
message(STATUS "retina_top ok: qps ${top_qps}")

# Let the background driver finish before draining the daemon; its rc file
# is the completion signal.
set(top_done FALSE)
foreach(i RANGE 150)
  if(EXISTS "${WORK_DIR}/top_rc")
    set(top_done TRUE)
    break()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 0.2)
endforeach()
if(NOT top_done)
  file(READ "${WORK_DIR}/top_driver.log" top_log)
  message(FATAL_ERROR "background driver never finished:\n${top_log}")
endif()
file(READ "${WORK_DIR}/top_rc" top_rc)
string(STRIP "${top_rc}" top_rc)
if(NOT top_rc EQUAL 0)
  file(READ "${WORK_DIR}/top_driver.log" top_log)
  message(FATAL_ERROR "background driver failed (${top_rc}):\n${top_log}")
endif()

# ---- Graceful drain: SIGTERM, then the daemon must exit on its own and
# leave its exports behind.
execute_process(COMMAND sh -c "kill -TERM ${serve_pid}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "kill -TERM ${serve_pid} failed")
endif()
set(daemon_gone FALSE)
foreach(i RANGE 150)
  execute_process(COMMAND sh -c "kill -0 ${serve_pid} 2>/dev/null"
                  RESULT_VARIABLE alive)
  if(NOT alive EQUAL 0)
    set(daemon_gone TRUE)
    break()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 0.2)
endforeach()
if(NOT daemon_gone)
  execute_process(COMMAND sh -c "kill -KILL ${serve_pid}")
  file(READ "${WORK_DIR}/serve.log" serve_log)
  message(FATAL_ERROR "daemon did not drain within 30s of SIGTERM:\n${serve_log}")
endif()

file(READ "${WORK_DIR}/serve.log" serve_log)
if(NOT serve_log MATCHES "serve: drained")
  message(FATAL_ERROR "daemon exited without logging a drain:\n${serve_log}")
endif()
if(NOT EXISTS "${WORK_DIR}/serve_metrics.json")
  message(FATAL_ERROR "daemon did not write serve_metrics.json:\n${serve_log}")
endif()
if(NOT EXISTS "${WORK_DIR}/serve_trace.json")
  message(FATAL_ERROR "daemon did not write serve_trace.json:\n${serve_log}")
endif()
if(NOT EXISTS "${WORK_DIR}/serve.prom")
  message(FATAL_ERROR "daemon did not write serve.prom:\n${serve_log}")
endif()
if(EXISTS "${SOCKET}")
  message(FATAL_ERROR "daemon left its socket file behind: ${SOCKET}")
endif()

# ---- BENCH_serve.json shape: >= 3 points; nothing dropped anywhere (a
# request is answered or shed, never lost); the lowest-QPS point runs
# entirely unshed. These rest on the daemon's serve.* counters (read over
# kMetrics) and the driver's own accounting, so they hold with obs
# compiled out too.
file(READ "${WORK_DIR}/BENCH_serve.json" bench_json)
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  string(JSON n_points ERROR_VARIABLE json_err LENGTH "${bench_json}" points)
  if(NOT json_err STREQUAL "NOTFOUND")
    message(FATAL_ERROR "BENCH_serve.json unparseable: ${json_err}\n${bench_json}")
  endif()
  if(n_points LESS 3)
    message(FATAL_ERROR "BENCH_serve.json has ${n_points} points, want >= 3")
  endif()
  math(EXPR last_point "${n_points} - 1")
  foreach(i RANGE 0 ${last_point})
    string(JSON dropped GET "${bench_json}" points ${i} dropped)
    string(JSON n_ok GET "${bench_json}" points ${i} ok)
    if(NOT dropped EQUAL 0)
      message(FATAL_ERROR "point ${i} dropped ${dropped} requests:\n${bench_json}")
    endif()
    if(n_ok EQUAL 0)
      message(FATAL_ERROR "point ${i} answered nothing:\n${bench_json}")
    endif()
  endforeach()
  string(JSON first_shed GET "${bench_json}" points 0 shed)
  string(JSON first_server_shed GET "${bench_json}" points 0 server_shed_delta)
  if(NOT first_shed EQUAL 0 OR NOT first_server_shed EQUAL 0)
    message(FATAL_ERROR "lowest-QPS point shed requests below capacity:\n${bench_json}")
  endif()

  # Coalescing observability contract: every point carries the coalesce
  # block (batches / batched_requests / avg_batch) and the top level
  # records the transport and the daemon's coalesce_max_batch. Values are
  # load-dependent; their presence and types are not.
  string(JSON transport ERROR_VARIABLE json_err GET "${bench_json}" transport)
  if(NOT json_err STREQUAL "NOTFOUND" OR NOT transport STREQUAL "unix")
    message(FATAL_ERROR "BENCH_serve.json transport is '${transport}', want unix")
  endif()
  string(JSON cmb ERROR_VARIABLE json_err GET "${bench_json}" coalesce_max_batch)
  if(NOT json_err STREQUAL "NOTFOUND")
    message(FATAL_ERROR "BENCH_serve.json lacks coalesce_max_batch: ${json_err}")
  endif()
  foreach(i RANGE 0 ${last_point})
    string(JSON cb ERROR_VARIABLE json_err
           GET "${bench_json}" points ${i} coalesce batches)
    if(NOT json_err STREQUAL "NOTFOUND")
      message(FATAL_ERROR "point ${i} lacks coalesce.batches: ${json_err}")
    endif()
    string(JSON cbr ERROR_VARIABLE json_err
           GET "${bench_json}" points ${i} coalesce batched_requests)
    if(NOT json_err STREQUAL "NOTFOUND")
      message(FATAL_ERROR "point ${i} lacks coalesce.batched_requests: ${json_err}")
    endif()
  endforeach()
  message(STATUS "bench json ok: ${n_points} points, zero drops")

  # TCP variant: parseable, correctly labeled, nothing dropped there either.
  file(READ "${WORK_DIR}/BENCH_serve_tcp.json" tcp_json)
  string(JSON tcp_transport ERROR_VARIABLE json_err GET "${tcp_json}" transport)
  if(NOT json_err STREQUAL "NOTFOUND" OR NOT tcp_transport STREQUAL "tcp")
    message(FATAL_ERROR "BENCH_serve_tcp.json transport is '${tcp_transport}', want tcp")
  endif()
  string(JSON tcp_points LENGTH "${tcp_json}" points)
  math(EXPR tcp_last "${tcp_points} - 1")
  foreach(i RANGE 0 ${tcp_last})
    string(JSON dropped GET "${tcp_json}" points ${i} dropped)
    if(NOT dropped EQUAL 0)
      message(FATAL_ERROR "TCP point ${i} dropped ${dropped} requests:\n${tcp_json}")
    endif()
  endforeach()
  message(STATUS "tcp bench json ok: ${tcp_points} points, zero drops")
endif()

# ---- Daemon metrics: in every build the serve counters must have counted
# the run and requests must equal responses (zero in-flight drops through
# the drain, observed via the exported registry this time).
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  file(READ "${WORK_DIR}/serve_metrics.json" serve_metrics_json)
  string(JSON serve_requests ERROR_VARIABLE json_err
         GET "${serve_metrics_json}" counters serve.requests)
  if(NOT json_err STREQUAL "NOTFOUND")
    message(FATAL_ERROR "serve metrics JSON unparseable: ${json_err}")
  endif()
  string(JSON serve_responses GET "${serve_metrics_json}" counters
         serve.responses)
  if(serve_requests STREQUAL "" OR serve_requests EQUAL 0)
    message(FATAL_ERROR "serve metrics counted no requests:\n${serve_metrics_json}")
  endif()
  if(NOT serve_requests EQUAL serve_responses)
    message(FATAL_ERROR "drain dropped in-flight work: requests="
            "${serve_requests} responses=${serve_responses}")
  endif()
  message(STATUS "serve metrics ok: ${serve_requests} requests, "
          "${serve_responses} responses")
endif()

# ---- Offline telemetry tooling against the real artifacts: the
# Prometheus exposition must pass the format validator (families exist
# even with obs compiled out — registration is unconditional, only the
# values flatline), and report.py must merge the driver's trace with the
# daemon's into a cross-process section. Skipped quietly if no python3 is
# on PATH (the report_tool_* ctest entries cover the same ground).
find_program(PYTHON3_FOR_E2E NAMES python3 python)
if(PYTHON3_FOR_E2E)
  get_filename_component(REPO_TOOLS "${CMAKE_CURRENT_LIST_DIR}/../tools"
                         ABSOLUTE)
  execute_process(
    COMMAND "${PYTHON3_FOR_E2E}" "${REPO_TOOLS}/check_prom.py"
            "${WORK_DIR}/serve.prom"
            --require-family retina_serve_handle_ns
            --require-family retina_serve_queue_wait_ns
    RESULT_VARIABLE rc OUTPUT_VARIABLE prom_out ERROR_VARIABLE prom_err)
  if(NOT rc EQUAL 0)
    file(READ "${WORK_DIR}/serve.prom" prom_text)
    message(FATAL_ERROR "check_prom failed (${rc}):\n${prom_out}\n${prom_err}\n"
            "exposition:\n${prom_text}")
  endif()
  message(STATUS "${prom_out}")

  execute_process(
    COMMAND "${PYTHON3_FOR_E2E}" "${REPO_TOOLS}/report.py"
            --serve-bench "${WORK_DIR}/BENCH_serve.json"
            --serve-metrics "${WORK_DIR}/serve_metrics.json"
            --trace "${WORK_DIR}/serve_trace.json"
            --client-trace "${WORK_DIR}/driver_trace.json"
            --out "${WORK_DIR}/report_serve.md"
    RESULT_VARIABLE rc OUTPUT_VARIABLE report_out ERROR_VARIABLE report_err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "report.py failed (${rc}):\n${report_out}\n${report_err}")
  endif()
  file(READ "${WORK_DIR}/report_serve.md" report_md)
  if(NOT report_md MATCHES "Cross-process traces")
    message(FATAL_ERROR "merged report lacks the cross-process section:\n${report_md}")
  endif()
  if(NOT OBS_COMPILED_OUT)
    # Both processes traced the same requests: at least one trace id must
    # pair a driver.send span with a serve.handle span.
    if(NOT report_md MATCHES "([0-9]+) trace ids appear in both files")
      message(FATAL_ERROR "merged report did not pair traces:\n${report_md}")
    endif()
    if(CMAKE_MATCH_1 EQUAL 0)
      message(FATAL_ERROR "no trace ids paired across processes:\n${report_md}")
    endif()
    message(STATUS "cross-process report ok: ${CMAKE_MATCH_1} paired trace ids")
  endif()
endif()

# Preserve the serving artifacts for report tests and CI upload, then drop
# the bulky world/model scratch.
file(REMOVE_RECURSE "${WORK_DIR}_outputs")
file(MAKE_DIRECTORY "${WORK_DIR}_outputs")
file(COPY "${WORK_DIR}/BENCH_serve.json" "${WORK_DIR}/BENCH_serve_tcp.json"
     "${WORK_DIR}/serve_metrics.json" "${WORK_DIR}/serve_trace.json"
     "${WORK_DIR}/driver_metrics.json" "${WORK_DIR}/driver_trace.json"
     "${WORK_DIR}/serve.prom" "${WORK_DIR}/top_once.txt"
     DESTINATION "${WORK_DIR}_outputs")
if(EXISTS "${WORK_DIR}/report_serve.md")
  file(COPY "${WORK_DIR}/report_serve.md" DESTINATION "${WORK_DIR}_outputs")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
message(STATUS "serve e2e smoke passed")
