# INT64_MIN / -1 wraps to INT64_MIN with remainder 0 on every machine;
# it must never trap the host. Invoked by the wmc-int-min-div-* ctests;
# see CMakeLists.txt.
#   MODE=run:   `wmc --run --target=TARGET` of a program that divides
#               array values at run time exits 0 with the wrapped value.
#   MODE=batch: a `wmc --batch` manifest with a TU whose division folds
#               at compile time, one whose initializer semantic analysis
#               evaluates, and a normal TU exits 0 and reports every TU
#               ok.
file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})
if(MODE STREQUAL "run")
    file(WRITE ${OUT_DIR}/div.c
         "int a[2];\n"
         "int main(void) {\n"
         "    a[0] = -9223372036854775807 - 1;\n"
         "    a[1] = -1;\n"
         "    return a[0] / a[1] + a[0] % a[1];\n"
         "}\n")
    execute_process(
        COMMAND ${WMC} --run --target=${TARGET} ${OUT_DIR}/div.c
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "wmc --run --target=${TARGET}: exit ${rc}, "
                            "want 0\n${out}${err}")
    endif()
    string(FIND "${out}" "exit value: -9223372036854775808" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "wmc --run --target=${TARGET}: no wrapped "
                            "quotient in the output:\n${out}${err}")
    endif()
else()
    file(WRITE ${OUT_DIR}/fold.c
         "int main(void) { return (-9223372036854775807 - 1) / -1; }\n")
    file(WRITE ${OUT_DIR}/init.c
         "int g = 1 / ((-9223372036854775807 - 1) / -1);\n"
         "int main(void) { return g; }\n")
    file(WRITE ${OUT_DIR}/manifest.txt
         "${OUT_DIR}/fold.c\n${OUT_DIR}/init.c\n${SOURCE}\n")
    execute_process(
        COMMAND ${WMC} --batch=${OUT_DIR}/manifest.txt
                --batch-report=${OUT_DIR}/report.json
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "wmc --batch: exit ${rc}, want 0\n${out}${err}")
    endif()
    file(READ ${OUT_DIR}/report.json report)
    foreach(tu ${OUT_DIR}/fold.c ${OUT_DIR}/init.c ${SOURCE})
        string(FIND "${report}" "\"id\":\"${tu}\",\"status\":\"ok\"" at)
        if(at EQUAL -1)
            message(FATAL_ERROR "batch report does not list ${tu} as ok:\n"
                                "${report}")
        endif()
    endforeach()
endif()
