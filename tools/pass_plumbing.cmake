# Plumbing guard for the loop passes: one loop-position helper, one
# memory-reference position, one set of preheader helpers, one
# memory-reference analysis, instructions without ids, and a remark
# collector the passes are given rather than one they must test for
# null.
#
# Fails if the sources under SRC_DIR define loopPos, refPos, scaleIV,
# materializeAddress, executesEveryIteration or appendToPreheader more
# than once; if they mention renumber; if rtl::Inst declares an id; if
# strength reduction linearizes addresses itself instead of reading
# the partitions; or if a file under src/streaming, src/recurrence or
# src/expand holds a remark collector by pointer or tests one for
# null.
#
# Arguments: SRC_DIR (absolute path of src/).
file(GLOB_RECURSE sources ${SRC_DIR}/*.cc ${SRC_DIR}/*.h)

# A definition is the name, its parameter list, then the body's brace.
foreach(name loopPos refPos scaleIV materializeAddress
             executesEveryIteration appendToPreheader)
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

foreach(f ${sources})
    file(READ ${f} text)
    string(REGEX MATCH "renumber" hit "${text}")
    if(hit)
        message(FATAL_ERROR "${f} mentions renumber: instructions have "
                            "no ids to renumber")
    endif()
endforeach()

file(READ ${SRC_DIR}/rtl/inst.h text)
string(REGEX MATCH "\nstruct Inst\n{[^}]*}" inst "${text}")
if(NOT inst)
    message(FATAL_ERROR "struct Inst not found in rtl/inst.h")
endif()
string(REGEX MATCH "[ \t]id[ \t]*[;={]" hit "${inst}")
if(hit)
    message(FATAL_ERROR "rtl::Inst declares an id: name an instruction "
                        "by its block and index")
endif()

file(READ ${SRC_DIR}/opt/strength.cc text)
string(REGEX MATCH "linearize[ \t]*\\(" hit "${text}")
if(hit)
    message(FATAL_ERROR "opt/strength.cc calls linearize: group the "
                        "references of buildPartitions instead")
endif()

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
message(STATUS "plumbing ok: one copy of each loop helper, no "
               "instruction ids, one reference walk, no nullable remark "
               "collector in the loop passes")
