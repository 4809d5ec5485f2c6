/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * The benchmark opens a span around each call it makes into a layer
 * (generation, the front end, the interpreter, the compiler driver,
 * the static FIFO analysis, the WM simulator, the scalar timing
 * model). Each span records its parent, and every span opened under
 * one root shares that root's id as its group, so all the work for
 * one program can be picked out of the trace. Spans stay in memory
 * and are written out once, after the run.
 */

#ifndef WMSTREAM_PERFBENCH_TRACE_H
#define WMSTREAM_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    struct Span
    {
        uint32_t id = 0;
        uint32_t parent = 0; ///< 0: a root span
        uint32_t group = 0;  ///< id of the root span this one is under
        const char *layer = "";
        int64_t startNs = 0;
        int64_t endNs = 0;
    };

    /** Closes its span on destruction; a no-op without a tracer. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, const char *layer);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        size_t index_ = 0;
    };

    Tracer();

    /**
     * Self time per layer in milliseconds: each span's duration minus
     * the part its direct children cover, summed by layer name.
     */
    std::map<std::string, double> selfMsByLayer() const;

    /** Write every span as Chrome trace_event JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    int64_t nowNs() const;

    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<size_t> open_; ///< indices into spans_, innermost last
};

} // namespace perfbench

#endif // WMSTREAM_PERFBENCH_TRACE_H
