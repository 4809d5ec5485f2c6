# A recursion past the stack reservation is a runtime fault: `wmc --run
# --target=TARGET` exits 3 and names "stack overflow" on stderr. Invoked
# by the wmc-stack-overflow-* ctests; see CMakeLists.txt.
file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})
file(WRITE ${OUT_DIR}/deep.c
     "int dive(int d) {\n"
     "    int buf[64];\n"
     "    buf[d % 64] = d;\n"
     "    return dive(d + 1) + buf[d % 64];\n"
     "}\n"
     "int main(void) { return dive(0); }\n")
execute_process(
    COMMAND ${WMC} --run --target=${TARGET} ${OUT_DIR}/deep.c
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 3)
    message(FATAL_ERROR "wmc --run --target=${TARGET}: exit ${rc}, "
                        "want 3\n${out}${err}")
endif()
string(FIND "${err}" "wmc: runtime error: stack overflow" at)
if(at EQUAL -1)
    message(FATAL_ERROR "wmc --run --target=${TARGET}: stderr does not "
                        "name the stack overflow:\n${out}${err}")
endif()
