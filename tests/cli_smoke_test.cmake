# ctest-driven round trip over the abcs CLI:
#   gen → stats → index (ABCSPAK1 bundle) → query (graph+--index and
#   self-contained --bundle) → scs (all algorithms) → profile → batches.
# Invoked as:
#   cmake -DABCS_CLI=<path> -DWORK_DIR=<dir> -P cli_smoke_test.cmake

if(NOT ABCS_CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DABCS_CLI=... -DWORK_DIR=... -P cli_smoke_test.cmake")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(GRAPH ${WORK_DIR}/bs.txt)
set(INDEX ${WORK_DIR}/bs.idx)

function(run_abcs expect_pattern)
  list(JOIN ARGN " " pretty)
  execute_process(
    COMMAND ${ABCS_CLI} ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "abcs ${pretty} failed (rc=${rc}):\n${out}${err}")
  endif()
  if(expect_pattern AND NOT out MATCHES "${expect_pattern}")
    message(FATAL_ERROR
      "abcs ${pretty}: output does not match '${expect_pattern}':\n${out}")
  endif()
  message(STATUS "ok: abcs ${pretty}")
endfunction()

run_abcs("wrote .*: [0-9]+ edges" gen BS ${GRAPH})
run_abcs("delta=[1-9]" stats ${GRAPH})
run_abcs("built I_delta .*saved to" index ${GRAPH} ${INDEX})
run_abcs("community of u1" query ${GRAPH} 1 2 2 --index ${INDEX})
run_abcs("" query ${GRAPH} 0 1 1 --index ${INDEX} --side l)

# Persistence round trip: the index file written above is an ABCSPAK1
# bundle; the same query served via graph+--index (auto-detected bundle,
# verified against the graph) and via the self-contained --bundle form must
# print byte-identical communities (only the timing figure may differ).
function(capture_query out_var)
  execute_process(
    COMMAND ${ABCS_CLI} ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    list(JOIN ARGN " " pretty)
    message(FATAL_ERROR "abcs ${pretty} failed (rc=${rc}):\n${out}${err}")
  endif()
  string(REGEX REPLACE "in [0-9.e+-]+ s" "in <t> s" out "${out}")
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()
capture_query(via_index query ${GRAPH} 2 2 2 --index ${INDEX})
capture_query(via_bundle query --bundle ${INDEX} 2 2 2)
if(NOT via_index STREQUAL via_bundle)
  message(FATAL_ERROR "bundle-served query differs from graph+index:\n"
    "--- via --index\n${via_index}\n--- via --bundle\n${via_bundle}")
endif()
message(STATUS "ok: --bundle query identical to graph + --index")

# A reweighted graph must be rejected against the stale bundle (the weight
# digest closes the topology checksum's blind spot).
file(READ ${GRAPH} graph_text)
string(REGEX REPLACE "\n([0-9]+ [0-9]+) [0-9.]+\n" "\n\\1 987654\n"
  reweighted_text "${graph_text}")
if(reweighted_text STREQUAL graph_text)
  message(FATAL_ERROR "reweighting patch did not change the edge list")
endif()
file(WRITE ${WORK_DIR}/bs_reweighted.txt "${reweighted_text}")
execute_process(
  COMMAND ${ABCS_CLI} query ${WORK_DIR}/bs_reweighted.txt 1 2 2 --index ${INDEX}
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(rc EQUAL 0 OR NOT err MATCHES "weights do not match")
  message(FATAL_ERROR "stale-weight bundle was not rejected (rc=${rc}):\n"
    "${out}${err}")
endif()
message(STATUS "ok: stale-weight bundle rejected")
# --index takes only bundles: a file in the retired single-index ABCSIDX2
# format (or any other non-bundle) fails with a typed Corruption error.
string(REPEAT "0" 120 legacy_pad)
file(WRITE ${WORK_DIR}/legacy.idx "ABCSIDX2${legacy_pad}")
execute_process(
  COMMAND ${ABCS_CLI} query ${GRAPH} 1 2 2 --index ${WORK_DIR}/legacy.idx
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(rc EQUAL 0 OR NOT err MATCHES "error: Corruption")
  message(FATAL_ERROR "non-bundle --index was not a Corruption error "
    "(rc=${rc}):\n${out}${err}")
endif()
message(STATUS "ok: non-bundle --index rejected as Corruption")

foreach(algo auto peel expand binary baseline)
  run_abcs("\\(2,2\\)-community" scs ${GRAPH} 1 2 2 --index ${INDEX} --algo ${algo})
endforeach()
run_abcs("f\\(R\\) for u1" profile ${GRAPH} 1 3 3 --index ${INDEX})

# Batched query engine: results on stdout must be byte-identical for any
# --threads value and any method must agree on community sizes.
set(BATCH ${WORK_DIR}/batch.txt)
file(WRITE ${BATCH} "1 2 2\n0 1 1 l\n2 3 3\n# comment line\n3 2 2 u\n")
foreach(threads 1 3)
  execute_process(
    COMMAND ${ABCS_CLI} query ${GRAPH} --batch ${BATCH} --threads ${threads}
      --index ${INDEX}
    OUTPUT_VARIABLE batch_out_${threads}
    ERROR_VARIABLE batch_err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "abcs query --batch --threads ${threads} failed "
      "(rc=${rc}):\n${batch_err}")
  endif()
endforeach()
if(NOT batch_out_1 STREQUAL batch_out_3)
  message(FATAL_ERROR "abcs query --batch is not deterministic across "
    "thread counts:\n--- threads=1\n${batch_out_1}\n--- threads=3\n"
    "${batch_out_3}")
endif()
if(NOT batch_out_1 MATCHES "# batch of 4 queries, method=delta")
  message(FATAL_ERROR "unexpected batch header:\n${batch_out_1}")
endif()
message(STATUS "ok: abcs query --batch deterministic across threads")
foreach(method online bicore)
  run_abcs("# batch of 4 queries, method=${method}"
    query ${GRAPH} --batch ${BATCH} --method ${method} --threads 2)
endforeach()

# Batches served straight from the bundle (no graph file): every method,
# same deterministic stdout as the graph-backed delta run where comparable.
foreach(method delta bicore online)
  run_abcs("# batch of 4 queries, method=${method}"
    query --bundle ${INDEX} --batch ${BATCH} --method ${method} --threads 2)
endforeach()
execute_process(
  COMMAND ${ABCS_CLI} query --bundle ${INDEX} --batch ${BATCH} --threads 2
  OUTPUT_VARIABLE batch_bundle ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "abcs query --bundle --batch failed: ${err}")
endif()
if(NOT batch_bundle STREQUAL batch_out_1)
  message(FATAL_ERROR "bundle-served batch differs from graph-served batch:\n"
    "--- graph\n${batch_out_1}\n--- bundle\n${batch_bundle}")
endif()
message(STATUS "ok: bundle-served batch identical to graph-served batch")

# Compressed-bundle round trip: a --compress bundle (bare flag = max) must
# answer every batch byte-identically to the raw bundle across all methods,
# and `abcs inspect` must show the v2 TOC with at least one coded section.
set(CINDEX ${WORK_DIR}/bs_compressed.idx)
run_abcs("compression=max" index ${GRAPH} ${CINDEX} --compress)
run_abcs("compression=fast" index ${GRAPH} ${WORK_DIR}/bs_fast.idx
  --compress=fast)
run_abcs("ABCSPAK2" inspect ${CINDEX})
execute_process(
  COMMAND ${ABCS_CLI} inspect ${CINDEX}
  OUTPUT_VARIABLE inspect_out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "abcs inspect failed: ${err}")
endif()
if(NOT inspect_out MATCHES "delta-varint" AND NOT inspect_out MATCHES "bit-pack")
  message(FATAL_ERROR "max-compressed bundle has no coded sections:\n"
    "${inspect_out}")
endif()
message(STATUS "ok: abcs inspect shows coded sections")
foreach(method delta bicore online)
  execute_process(
    COMMAND ${ABCS_CLI} query --bundle ${CINDEX} --batch ${BATCH}
      --method ${method} --threads 2
    OUTPUT_VARIABLE compressed_out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "abcs query --bundle (compressed) --method ${method} "
      "failed: ${err}")
  endif()
  execute_process(
    COMMAND ${ABCS_CLI} query --bundle ${INDEX} --batch ${BATCH}
      --method ${method} --threads 2
    OUTPUT_VARIABLE raw_out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "abcs query --bundle (raw) --method ${method} "
      "failed: ${err}")
  endif()
  if(NOT compressed_out STREQUAL raw_out)
    message(FATAL_ERROR "compressed bundle answers differ from raw bundle "
      "(method=${method}):\n--- raw\n${raw_out}\n--- compressed\n"
      "${compressed_out}")
  endif()
endforeach()
message(STATUS "ok: compressed bundle batch-identical to raw across methods")
foreach(method scs-auto scs-peel scs-expand scs-binary)
  execute_process(
    COMMAND ${ABCS_CLI} query ${GRAPH} --batch ${BATCH} --method ${method}
      --threads 2 --index ${CINDEX}
    OUTPUT_VARIABLE compressed_out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "abcs query --index (compressed) --method ${method} "
      "failed: ${err}")
  endif()
  execute_process(
    COMMAND ${ABCS_CLI} query ${GRAPH} --batch ${BATCH} --method ${method}
      --threads 2 --index ${INDEX}
    OUTPUT_VARIABLE raw_out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "abcs query --index (raw) --method ${method} "
      "failed: ${err}")
  endif()
  if(NOT compressed_out STREQUAL raw_out)
    message(FATAL_ERROR "compressed index answers differ from raw index "
      "(method=${method}):\n--- raw\n${raw_out}\n--- compressed\n"
      "${compressed_out}")
  endif()
endforeach()
message(STATUS "ok: compressed scs batches identical to raw across kernels")

# SCS batches: the full two-step paradigm per query through the engine —
# stdout (planner decisions included) must be byte-identical for any
# --threads value, and every kernel must agree on the batch aggregates.
foreach(threads 1 3)
  execute_process(
    COMMAND ${ABCS_CLI} query ${GRAPH} --batch ${BATCH} --method scs-auto
      --threads ${threads} --index ${INDEX}
    OUTPUT_VARIABLE scs_out_${threads}
    ERROR_VARIABLE scs_err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "abcs query --batch --method scs-auto --threads "
      "${threads} failed (rc=${rc}):\n${scs_err}")
  endif()
endforeach()
if(NOT scs_out_1 STREQUAL scs_out_3)
  message(FATAL_ERROR "scs-auto batch is not deterministic across thread "
    "counts:\n--- threads=1\n${scs_out_1}\n--- threads=3\n${scs_out_3}")
endif()
if(NOT scs_out_1 MATCHES "# batch of 4 scs queries, algo=auto")
  message(FATAL_ERROR "unexpected scs batch header:\n${scs_out_1}")
endif()
string(REGEX MATCH "# found=[^\n]*" scs_totals_auto "${scs_out_1}")
foreach(method scs-peel scs-expand scs-binary)
  execute_process(
    COMMAND ${ABCS_CLI} query ${GRAPH} --batch ${BATCH} --method ${method}
      --threads 2 --index ${INDEX}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "abcs query --batch --method ${method} failed: ${err}")
  endif()
  string(REGEX MATCH "# found=[^\n]*" scs_totals "${out}")
  if(NOT scs_totals STREQUAL scs_totals_auto)
    message(FATAL_ERROR "${method} batch aggregates differ from scs-auto:\n"
      "${scs_totals}\nvs\n${scs_totals_auto}")
  endif()
endforeach()
message(STATUS "ok: scs batches deterministic and kernel-agreeing")

# Strict numbers: every malformed, negative, out-of-range or trailing-junk
# value, unknown flag or flag combination is rejected with usage (exit 2)
# before any connection is made or any file is loaded. Each item below is
# one whole invocation: foreach keeps a quoted item's `;` separators, where
# `set` + `IN LISTS` would flatten them into one-word invocations.
file(WRITE ${WORK_DIR}/client_batch.txt "1 2 2\n")
foreach(invocation
  "client;--port;80x;--ping"
  "client;--port;70000;--ping"
  "client;--port;0;--ping"
  "client;--port;1;--deadline-ms;-1;1;2;2"
  "client;--port;1;--connect-timeout-ms;5s;--ping"
  "client;--port;1;--io-timeout-ms;1.5;--ping"
  "client;--port;1;--retries;0;--ping"
  "client;--port;1;--rcvbuf-kb;-4;1;1;1;--flood;10"
  "client;--port;1;1;1;1;--flood;1e3"
  "client;--port;1;1;1;1;--flood;10;--hold-ms;3s"
  "client;--port;1;1x;2;2"
  "client;--port;1;1;-2;2"
  "client;--port;1;4294967296;2;2"
  "client;--port;1;1;2;2;--side;lower"
  "client;--port;1;--batch;${WORK_DIR}/client_batch.txt;--connections;2x;--duration;5"
  "client;--port;1;--batch;${WORK_DIR}/client_batch.txt;--connections;2;--duration;5s"
  "client;--port;1;--batch;${WORK_DIR}/client_batch.txt;--connections;2;--duration;-5"
  "client;--port;1;--insert;1;2;w3"
  "client;--port;1;--insert;1;2;nan"
  "client;--port;1;--remove;1;-2"
  "client;--port;1;--reweight;1x;2;3.5"
  "query;${GRAPH};--batch;${BATCH};--threads;2x"
  "query;${GRAPH};--batch;${BATCH};--threads;-1"
  "query;${GRAPH};1;2;2;--side;x"
  "query;${GRAPH};--batch;${BATCH};--method;bogus"
  "scs;${GRAPH};1;2;2;--algo;bogus"
  "serve;${GRAPH};--threads;2x"
  "serve;${GRAPH};--port;70000"
  "serve;${GRAPH};--max-queue;0"
  "serve;${GRAPH};--bogus"
  "serve;${GRAPH};--compact-path;${WORK_DIR}/compact.idx"
  "serve;${GRAPH};--scrub-interval-ms;5")
  execute_process(COMMAND ${ABCS_CLI} ${invocation}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "usage:")
    message(FATAL_ERROR "abcs ${invocation} was not rejected with usage "
      "(rc=${rc}):\n${out}${err}")
  endif()
endforeach()
# The same flags with well-formed values parse: the client gets as far as
# connecting to a closed local port and fails there (exit 1, no usage).
execute_process(
  COMMAND ${ABCS_CLI} client --port 1 --retries 1 --connect-timeout-ms 500
    --io-timeout-ms 500 --deadline-ms 10 --side l 1 2 2
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 1 OR err MATCHES "usage:")
  message(FATAL_ERROR "well-formed client flags were not accepted "
    "(rc=${rc}):\n${out}${err}")
endif()
message(STATUS "ok: malformed numeric flags rejected with usage")

# A bad batch or update-file line fails with its file:line (exit 1) before
# any connection is made: a q past u32 must not wrap into another vertex,
# and an update weight must be a finite number, as on the command line.
file(WRITE ${WORK_DIR}/wrap.txt "1 2 2\n4294967297 2 2\n")
file(WRITE ${WORK_DIR}/updates_nan.txt "i 1 2 3.5\nw 1 2 nan\n")
foreach(case "--batch;wrap.txt" "--update-file;updates_nan.txt")
  list(GET case 0 flag)
  list(GET case 1 name)
  execute_process(
    COMMAND ${ABCS_CLI} client --port 1 ${flag} ${WORK_DIR}/${name}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "${name}:2")
    message(FATAL_ERROR "client ${flag} ${name} was not rejected at line 2 "
      "(rc=${rc}):\n${out}${err}")
  endif()
endforeach()
message(STATUS "ok: bad batch and update-file lines rejected with file:line")
# A lower-layer q past its layer is out of range; it must not wrap through
# the unified id space into an upper-layer vertex.
execute_process(COMMAND ${ABCS_CLI} query ${GRAPH} 4294967295 2 2 --side l
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 1 OR NOT err MATCHES "query vertex out of range")
  message(FATAL_ERROR "lower-layer q 4294967295 was not out of range "
    "(rc=${rc}):\n${out}${err}")
endif()
message(STATUS "ok: out-of-layer q rejected")

# Determinism: a second gen of the same spec must be byte-identical.
run_abcs("" gen BS ${WORK_DIR}/bs2.txt)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GRAPH} ${WORK_DIR}/bs2.txt
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "abcs gen is not deterministic")
endif()
message(STATUS "cli smoke test passed")
