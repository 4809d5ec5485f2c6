/**
 * @file
 * The streaming optimization (paper, "Streaming Optimization
 * Algorithm").
 *
 * After recurrences have been optimized, every safe memory reference
 * that executes on each iteration of a loop is turned into a hardware
 * stream: a SinX/SoutX instruction in the preheader directs a stream
 * control unit to move the whole sequence between memory and a data
 * FIFO, the loads/stores inside the loop become FIFO register
 * references, and (when the trip count is a computable expression) the
 * loop test is replaced by a jump-on-stream-not-exhausted. When the
 * trip count is unknown (a data-dependent while loop), streams are
 * started unbounded and StreamStop instructions are placed at every
 * loop exit — the paper's "infinite streams".
 */

#ifndef WMSTREAM_STREAMING_STREAMING_H
#define WMSTREAM_STREAMING_STREAMING_H

#include <string>
#include <vector>

#include "obs/remarks.h"
#include "rtl/machine.h"
#include "rtl/program.h"

namespace wmstream::streaming {

/** Result summary for tests and the experiment harnesses. */
struct StreamingReport
{
    int loopsExamined = 0;
    int loopsStreamed = 0;
    int streamsIn = 0;
    int streamsOut = 0;
    int infiniteStreams = 0;
    int loopTestsReplaced = 0;
    int inductionVarsDeleted = 0;
    std::vector<std::string> notes;
};

/**
 * Run the streaming optimization over all innermost loops of @p fn.
 * Only meaningful when @p traits.hasStreams; returns an empty report
 * otherwise. @p minTripCount implements the paper's Step 1: loops with
 * a known trip count of three or fewer are not streamed.
 *
 * Every accept/reject decision is recorded in @p remarks: an `applied`
 * remark per created stream and per streamed loop, and a `missed`
 * remark with a stable reason code (`trip-count-too-small`,
 * `memory-recurrence-remains`, `not-every-iteration`,
 * `no-fifo-available`, ...) for each rejection, located at the source
 * position of the loop or memory reference that caused it.
 *
 * @p injectStreamCountBug is the deadlock watchdog's hidden self-test
 * (wmfuzz/wmc --inject-deadlock-bug): every input stream except the
 * loop-steering one is started one element short, a deliberate
 * FIFO-imbalance miscompile. Nothing but the fault-injection harness
 * may set it.
 *
 * @p injectVerifierBug is the IR verifier's hidden self-test
 * (wmfuzz/wmc --inject-verifier-bug): the single use of one
 * non-steering input stream reads the zero register instead of the
 * FIFO register, so one dequeue silently disappears from the loop
 * body — a FIFO-pop-imbalance miscompile the static linter must
 * catch at compile time. Nothing but the fault-injection harness may
 * set it.
 */
StreamingReport runStreaming(rtl::Function &fn,
                             const rtl::MachineTraits &traits,
                             obs::RemarkCollector &remarks,
                             int minTripCount = 4,
                             bool injectStreamCountBug = false,
                             bool injectVerifierBug = false);

} // namespace wmstream::streaming

#endif // WMSTREAM_STREAMING_STREAMING_H
