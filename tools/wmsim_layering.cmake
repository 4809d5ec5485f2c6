# Layering guard for the WM machine model: src/wmsim/sim.cc reports
# what the machine does to probe sinks (wmsim/probe.h) and records
# nothing itself. Fails if SOURCE includes a recorder header or names
# a recorder type.
#
# Arguments: SOURCE (absolute path of sim.cc).
file(READ ${SOURCE} text)
foreach(header obs/critpath.h obs/trace.h obs/timeseries.h
               obs/histogram.h)
    string(REGEX MATCH "#[ \t]*include[ \t]*[<\"]${header}[>\"]" hit
           "${text}")
    if(hit)
        message(FATAL_ERROR "${SOURCE} includes ${header}: recorders "
                            "belong in probe sinks, not the machine")
    endif()
endforeach()
foreach(name CritPath TraceWriter TimeSeries "cp->")
    string(FIND "${text}" "${name}" at)
    if(NOT at EQUAL -1)
        message(FATAL_ERROR "${SOURCE} names ${name}: recorders "
                            "belong in probe sinks, not the machine")
    endif()
endforeach()
message(STATUS "layering ok: ${SOURCE} names no recorder")
