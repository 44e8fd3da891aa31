# Drives the wiclean CLI end to end: generate a corpus, mine it, detect
# errors, and check the outputs exist and look sane.
file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(
  COMMAND ${WICLEAN} synth --out-dir ${WORK_DIR} --seeds 80 --years 1
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "synth failed: ${out}${err}")
endif()
foreach(f dump.xml taxonomy.tsv alignment.tsv)
  if(NOT EXISTS ${WORK_DIR}/${f})
    message(FATAL_ERROR "missing ${f}")
  endif()
endforeach()

execute_process(
  COMMAND ${WICLEAN} mine
    --dump ${WORK_DIR}/dump.xml
    --taxonomy ${WORK_DIR}/taxonomy.tsv
    --alignment ${WORK_DIR}/alignment.tsv
    --seed-type soccer_player --threshold 0.8
    --json ${WORK_DIR}/report.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mine failed: ${out}${err}")
endif()
if(NOT out MATCHES "pattern\\(s\\) in")
  message(FATAL_ERROR "mine summary missing: ${out}")
endif()
file(READ ${WORK_DIR}/report.json json)
if(NOT json MATCHES "\"patterns\"")
  message(FATAL_ERROR "JSON report malformed")
endif()

execute_process(
  COMMAND ${WICLEAN} detect
    --dump ${WORK_DIR}/dump.xml
    --taxonomy ${WORK_DIR}/taxonomy.tsv
    --alignment ${WORK_DIR}/alignment.tsv
    --seed-type soccer_player --threshold 0.8
    --csv ${WORK_DIR}/signals.csv
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "detect failed: ${out}${err}")
endif()
if(NOT out MATCHES "potential error")
  message(FATAL_ERROR "detect summary missing: ${out}")
endif()
file(READ ${WORK_DIR}/signals.csv csv)
if(NOT csv MATCHES "pattern,window_begin_day")
  message(FATAL_ERROR "CSV header missing")
endif()

# Action log: ingest once to a WCAL artifact, then mine from the log in
# place of the dump. The two mine reports must agree exactly, modulo the
# wall-time lines.
execute_process(
  COMMAND ${WICLEAN} ingest
    --dump ${WORK_DIR}/dump.xml
    --taxonomy ${WORK_DIR}/taxonomy.tsv
    --alignment ${WORK_DIR}/alignment.tsv
    --out ${WORK_DIR}/actions.wcal
    --stats-json ${WORK_DIR}/ingest.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ingest failed: ${out}${err}")
endif()
if(NOT out MATCHES "action\\(s\\) in .* block\\(s\\)")
  message(FATAL_ERROR "ingest summary missing: ${out}")
endif()
file(READ ${WORK_DIR}/ingest.json ingest_json)
if(NOT ingest_json MATCHES "\"action_log\"")
  message(FATAL_ERROR "ingest stats JSON malformed")
endif()

execute_process(
  COMMAND ${WICLEAN} mine
    --action-log ${WORK_DIR}/actions.wcal
    --taxonomy ${WORK_DIR}/taxonomy.tsv
    --alignment ${WORK_DIR}/alignment.tsv
    --seed-type soccer_player --threshold 0.8
    --json ${WORK_DIR}/report_wcal.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mine --action-log failed: ${out}${err}")
endif()
# Strip the timing lines, then demand byte equality with the XML-path report.
foreach(name report report_wcal)
  file(STRINGS ${WORK_DIR}/${name}.json ${name}_lines)
  list(FILTER ${name}_lines EXCLUDE REGEX "seconds")
endforeach()
if(NOT report_lines STREQUAL report_wcal_lines)
  message(FATAL_ERROR "mine --action-log report differs from --dump report")
endif()

# Error paths: bad inputs must fail with a clear message.
execute_process(
  COMMAND ${WICLEAN} mine --dump /nonexistent --taxonomy /nonexistent
    --alignment /nonexistent --seed-type x
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "mine with bad inputs should fail")
endif()
execute_process(
  COMMAND ${WICLEAN} mine
    --dump ${WORK_DIR}/dump.xml
    --taxonomy ${WORK_DIR}/taxonomy.tsv
    --alignment ${WORK_DIR}/alignment.tsv
    --seed-type soccer_player --mine-threads -1
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 1 OR NOT err MATCHES "InvalidArgument.*--mine-threads")
  message(FATAL_ERROR "--mine-threads -1 should be rejected (rc=${rc}): ${err}")
endif()
# Mining flags are validated before any mining runs: thresholds outside the
# paper's [0.2, 1] (below it, relative mining used to crash on an evicted
# realization table), negative abstraction lifts, and non-numeric or
# non-positive action caps.
foreach(bad
    "--threshold;0.15;\\[0\\.2, 1\\]"
    "--threshold;0.12;\\[0\\.2, 1\\]"
    "--threshold;abc;--threshold must be a number"
    "--threshold;0.7abc;--threshold must be a number"
    "--abstraction-lift;-1;--abstraction-lift"
    "--abstraction-lift;abc;--abstraction-lift"
    "--max-actions;abc;--max-actions"
    "--max-actions;-1;--max-actions")
  list(GET bad 0 flag)
  list(GET bad 1 value)
  list(GET bad 2 expect)
  execute_process(
    COMMAND ${WICLEAN} mine
      --dump ${WORK_DIR}/dump.xml
      --taxonomy ${WORK_DIR}/taxonomy.tsv
      --alignment ${WORK_DIR}/alignment.tsv
      --seed-type soccer_player ${flag} ${value}
    RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "InvalidArgument.*${expect}")
    message(FATAL_ERROR
      "mine ${flag} ${value} should be rejected (rc=${rc}): ${err}")
  endif()
endforeach()

# Every other numeric flag is parsed strictly too: a malformed or
# out-of-range value fails with InvalidArgument naming the flag instead of
# silently running as 0 or as a truncated prefix.
function(expect_rejected expect)
  execute_process(
    COMMAND ${WICLEAN} ${ARGN}
    RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "InvalidArgument.*${expect}")
    message(FATAL_ERROR "'${ARGN}' should be rejected (rc=${rc}): ${err}")
  endif()
endfunction()
set(corpus_flags
  --taxonomy ${WORK_DIR}/taxonomy.tsv --alignment ${WORK_DIR}/alignment.tsv)
set(log_flags --action-log ${WORK_DIR}/actions.wcal ${corpus_flags})
execute_process(
  COMMAND ${WICLEAN} pack ${log_flags}
    --seed-type soccer_player --threshold 0.8
    --out ${WORK_DIR}/patterns.wcps
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pack failed: ${out}${err}")
endif()
set(snapshot_flags ${log_flags} --patterns ${WORK_DIR}/patterns.wcps)
expect_rejected("--rng-seed must be an integer"
  synth --out-dir ${WORK_DIR}/rejected --rng-seed xyz)
expect_rejected("--block-actions must be an integer"
  ingest --dump ${WORK_DIR}/dump.xml ${corpus_flags}
  --out ${WORK_DIR}/rejected.wcal --block-actions abc)
expect_rejected("--threads must be an integer"
  ingest --dump ${WORK_DIR}/dump.xml ${corpus_flags}
  --out ${WORK_DIR}/rejected.wcal --threads abc)
expect_rejected("--max-print must be an integer"
  detect ${snapshot_flags} --max-print abc)
expect_rejected("--queue-capacity must be an integer"
  serve ${snapshot_flags} --queue-capacity abc)
# A negative skew would finalize windows early and drop their later edits
# as late, so online alerts would stop matching batch detection.
expect_rejected("--allowed-skew must be an integer >= 0"
  serve ${snapshot_flags} --allowed-skew -2000000)
execute_process(
  COMMAND ${WICLEAN} serve ${snapshot_flags} --allowed-skew 0
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "potential error")
  message(FATAL_ERROR "serve --allowed-skew 0 failed (rc=${rc}): ${out}${err}")
endif()

execute_process(
  COMMAND ${WICLEAN} bogus-subcommand
  RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "unknown subcommand should fail")
endif()
