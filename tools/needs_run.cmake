# Run wmc with FLAG and no --run from an empty OUT_DIR; pass only when
# it exits 2, names EXPECT on stderr and writes no file. Invoked by the
# wmc-needs-run-* ctests; see CMakeLists.txt.
file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})
execute_process(
    COMMAND ${WMC} ${FLAG} ${SOURCE}
    WORKING_DIRECTORY ${OUT_DIR}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "wmc ${FLAG} without --run: exit ${rc}, want 2\n"
                        "${out}${err}")
endif()
string(FIND "${err}" "wmc: ${EXPECT} needs --run" at)
if(at EQUAL -1)
    message(FATAL_ERROR "wmc ${FLAG}: stderr does not name ${EXPECT}:\n"
                        "${err}")
endif()
file(GLOB written ${OUT_DIR}/*)
if(written)
    message(FATAL_ERROR "wmc ${FLAG} without --run wrote ${written}")
endif()
