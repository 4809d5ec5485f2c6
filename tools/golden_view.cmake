# Golden-output test for one wmreport view, for wmc's Chrome trace, or
# for one of wmc's printed outputs. Runs wmc from inside the source's
# directory with a relative path (so every source location in the
# output is path-independent), renders the requested view, and
# byte-compares it against the checked-in golden. VIEW=--trace-out
# compares the `wmc --run --trace-out` file instead of a wmreport
# view; VIEW=--remarks=json, --trace-partitions or --print-asm compares
# the stdout of `wmc VIEW`, compiled for TARGET when it is given.
#
# The simulator is deterministic, wmreport prints no wall-clock data,
# and the relative-path trick keeps build-tree paths out — so the
# golden is stable across machines. Regenerate after an intentional
# output change with -DUPDATE=1, then review the diff like any other
# source change.
#
# Arguments: WMC, WMREPORT (only for wmreport views), SOURCE
# (absolute), VIEW (e.g. --timeline, --trace-out or --print-asm),
# GOLDEN (checked-in file), OUT_DIR, optional TARGET (wmc --target)
# and UPDATE.
file(MAKE_DIRECTORY ${OUT_DIR})
set(MANIFEST ${OUT_DIR}/manifest.json)
set(TRACE ${OUT_DIR}/trace.json)
get_filename_component(src_dir ${SOURCE} DIRECTORY)
get_filename_component(src_name ${SOURCE} NAME)
set(stdout_views "^--(remarks=json|trace-partitions|print-asm)$")
if(VIEW STREQUAL "--trace-out")
    set(run_args --run --trace-out=${TRACE})
elseif(VIEW MATCHES "${stdout_views}")
    set(run_args ${VIEW})
else()
    set(run_args --run --sample-window=64 --critpath --critpath-validate
                 --manifest=${MANIFEST})
endif()
if(TARGET)
    list(PREPEND run_args --target=${TARGET})
endif()
execute_process(
    COMMAND ${WMC} ${run_args} ${src_name}
    WORKING_DIRECTORY ${src_dir}
    RESULT_VARIABLE run_rc
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_err)
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR
            "wmc failed on ${src_name} (rc=${run_rc}):\n${run_out}${run_err}")
endif()

if(VIEW STREQUAL "--trace-out")
    file(READ ${TRACE} view_out)
elseif(VIEW MATCHES "${stdout_views}")
    set(view_out "${run_out}")
else()
    execute_process(
        COMMAND ${WMREPORT} ${VIEW} ${MANIFEST}
        RESULT_VARIABLE view_rc
        OUTPUT_VARIABLE view_out
        ERROR_VARIABLE view_err)
    if(NOT view_rc EQUAL 0)
        message(FATAL_ERROR
                "wmreport ${VIEW} failed (rc=${view_rc}):\n${view_err}")
    endif()
endif()

if(UPDATE)
    file(WRITE ${GOLDEN} "${view_out}")
    message(STATUS "updated ${GOLDEN}")
    return()
endif()

if(NOT EXISTS ${GOLDEN})
    message(FATAL_ERROR
            "golden file ${GOLDEN} missing; regenerate with "
            "-DUPDATE=1")
endif()
file(READ ${GOLDEN} want)
if(NOT view_out STREQUAL want)
    set(GOT ${OUT_DIR}/got.txt)
    file(WRITE ${GOT} "${view_out}")
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${GOLDEN} ${GOT})
    message(FATAL_ERROR
            "${VIEW} output differs from ${GOLDEN}\n"
            "--- got (${GOT}):\n${view_out}\n"
            "--- want:\n${want}\n"
            "If the change is intentional, regenerate with -DUPDATE=1.")
endif()
message(STATUS "golden ok: ${VIEW} matches ${GOLDEN}")
