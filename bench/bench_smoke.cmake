# Run one bench binary with --json-out, check the emitted file is
# valid JSON, and (when BASELINE/BENCHDIFF are set) diff its cycle
# metrics against the committed BENCH_baseline.json — any change
# fails the test. Invoked by the bench-smoke ctest; see
# CMakeLists.txt.
execute_process(
    COMMAND ${BENCH_BIN} --json-out=${OUT_JSON} "--benchmark_filter=^$"
    RESULT_VARIABLE run_rc
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_err)
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR
            "${BENCH_BIN} failed (rc=${run_rc}):\n${run_out}${run_err}")
endif()
if(NOT EXISTS ${OUT_JSON})
    message(FATAL_ERROR "${BENCH_BIN} did not write ${OUT_JSON}")
endif()
execute_process(
    COMMAND ${PYTHON} -m json.tool ${OUT_JSON}
    RESULT_VARIABLE json_rc
    OUTPUT_QUIET
    ERROR_VARIABLE json_err)
if(NOT json_rc EQUAL 0)
    message(FATAL_ERROR "invalid JSON in ${OUT_JSON}:\n${json_err}")
endif()
if(DEFINED BASELINE AND DEFINED BENCHDIFF)
    execute_process(
        COMMAND ${PYTHON} ${BENCHDIFF} diff ${BASELINE} ${OUT_JSON}
        RESULT_VARIABLE diff_rc
        OUTPUT_VARIABLE diff_out
        ERROR_VARIABLE diff_err)
    if(NOT diff_rc EQUAL 0)
        message(FATAL_ERROR
                "gated metric changed vs ${BASELINE}:\n${diff_out}${diff_err}")
    endif()
    message(STATUS "${diff_out}")
endif()
