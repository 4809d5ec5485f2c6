# Plumbing guard for the loop passes: one loop-position helper, one
# memory-reference position, and a remark collector the passes are
# given rather than one they must test for null.
#
# Fails if the sources under SRC_DIR define loopPos or refPos more
# than once, or if a file under src/streaming, src/recurrence or
# src/expand holds a remark collector by pointer or tests one for
# null.
#
# Arguments: SRC_DIR (absolute path of src/).
file(GLOB_RECURSE sources ${SRC_DIR}/*.cc ${SRC_DIR}/*.h)

# A definition is the name, its parameter list, then the body's brace.
foreach(name loopPos refPos)
    set(defs "")
    foreach(f ${sources})
        file(READ ${f} text)
        string(REGEX MATCHALL
               "[^A-Za-z0-9_]${name}\\([^;{}()]*\\)[ \t\n]*(const[ \t\n]*)?{"
               hits "${text}")
        foreach(hit ${hits})
            list(APPEND defs ${f})
        endforeach()
    endforeach()
    list(LENGTH defs count)
    if(count GREATER 1)
        string(REPLACE ";" "\n  " defs "${defs}")
        message(FATAL_ERROR "${name} is defined ${count} times:\n  ${defs}\n"
                            "keep the one definition and call it")
    endif()
endforeach()

set(null_checks
    "RemarkCollector[ \t]*\\*"
    "if[ \t]*\\([ \t]*!?[ \t]*[A-Za-z_.>-]*remarks_?[ \t]*\\)"
    "[^A-Za-z0-9_]remarks_?[ \t]*(&&|\\|\\||\\?|[!=]=)"
    "(&&|\\|\\|)[ \t]*!?[ \t]*[A-Za-z_.>-]*remarks_?[^A-Za-z0-9_(]")
foreach(dir streaming recurrence expand)
    file(GLOB files ${SRC_DIR}/${dir}/*.cc ${SRC_DIR}/${dir}/*.h)
    foreach(f ${files})
        file(READ ${f} text)
        foreach(pattern ${null_checks})
            string(REGEX MATCH "${pattern}" hit "${text}")
            if(hit)
                message(FATAL_ERROR
                        "${f}: \"${hit}\": the remark collector is "
                        "passed by reference and never null")
            endif()
        endforeach()
    endforeach()
endforeach()
message(STATUS "plumbing ok: one loopPos, no refPos copy, no nullable "
               "remark collector in the loop passes")
