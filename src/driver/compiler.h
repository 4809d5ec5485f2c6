/**
 * @file
 * The compiler driver: source to optimized target program.
 *
 * Mirrors the paper's Figure 3 pipeline: front end -> code expander ->
 * optimizer phases (cleanup, loop analysis, recurrence optimization,
 * streaming, strength reduction) -> register assignment -> (WM only)
 * FIFO-form lowering. Every knob an experiment needs is a
 * CompileOptions field, so the benchmark harnesses can compile the same
 * source with/without recurrence detection or streaming, exactly like
 * the paper's measurements.
 */

#ifndef WMSTREAM_DRIVER_COMPILER_H
#define WMSTREAM_DRIVER_COMPILER_H

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "obs/pass_profiler.h"
#include "obs/remarks.h"
#include "recurrence/recurrence.h"
#include "rtl/machine.h"
#include "rtl/program.h"
#include "streaming/streaming.h"
#include "streaming/vectorize.h"
#include "support/diag.h"
#include "verify/verify.h"

namespace wmstream::driver {

/** When the IR verifier (src/verify) runs during compilation. */
enum class VerifyMode : uint8_t {
    Off,   ///< no verification (the default)
    Final, ///< once, on the finished program
    /**
     * After expansion and after every pass, per function — LLVM's
     * -verify-each in spirit: a violation is attributed to the pass
     * that ran just before the failing checkpoint.
     */
    Each,
};

/** Per-compilation switches. */
struct CompileOptions
{
    rtl::MachineKind target = rtl::MachineKind::WM;
    bool optimize = true;        ///< classic cleanup phases
    bool recurrence = true;      ///< recurrence detection/optimization
    bool streaming = true;       ///< streaming (WM only)
    bool vectorize = false;      ///< VEU vectorization of streamed loops
    int minStreamTripCount = 4;  ///< paper Step 1 threshold
    /**
     * Record per-pass wall time, RTL instruction-count deltas, and
     * pass-specific counters into CompileResult::passProfiles.
     * Off by default: profiling must not slow down compilation.
     */
    bool profilePasses = false;
    /**
     * Fault injection for the differential fuzzer's self-test ONLY:
     * disable the recurrence optimizer's same-cell legality check so
     * wmfuzz has a real miscompile to catch, deduplicate, and
     * minimize. Hidden behind `wmfuzz --inject-recurrence-bug`;
     * nothing else may set it.
     */
    bool injectRecurrenceDistanceBug = false;
    /**
     * Fault injection for the deadlock watchdog's self-test ONLY:
     * under-count every input stream except the loop-steering one by
     * one element, so the consumer's final dequeue blocks forever
     * (FIFO-imbalance miscompile). Hidden behind
     * `wmfuzz --inject-deadlock-bug` / `wmc --inject-deadlock-bug`;
     * nothing else may set it.
     */
    bool injectStreamCountBug = false;
    /**
     * Run the IR verifier (structural validity, FIFO discipline,
     * recurrence legality; see verify/verify.h). Violations land in
     * CompileResult::verifyReports and are mirrored into the remarks
     * stream under pass "verify". A violation always means a
     * compiler bug, never a user error: wmc exits 70 on any.
     */
    VerifyMode verify = VerifyMode::Off;
    /**
     * Run the whole-program static FIFO deadlock/depth-requirement
     * analysis (verify/fifodepth.cc) over the final lowered WM code.
     * Results land in CompileResult::fifoRequirements; compiler-bug
     * findings (static-starved-pop, static-unproven) additionally
     * flow into verifyReports/remarks like any verifier violation,
     * while a fifo-depth-exceeded finding is a *configuration* error
     * the caller (wmc) reports against --fifo-depth. No effect on
     * scalar targets.
     */
    bool inferFifoDepth = false;
    /**
     * The data-FIFO depth the hardware model will run with; the
     * inferred per-queue minima are checked against it. Matches
     * wmsim::SimConfig::dataFifoDepth (wmc keeps them in sync via
     * --fifo-depth).
     */
    int configuredFifoDepth = 8;
    /**
     * Cooperative cancellation: when non-null, the driver polls this
     * flag at every pipeline checkpoint (after the front end, after
     * expansion, and after each pass) and raises CancelledError
     * ("deadline") once it reads true. This is how the serve batch
     * watchdog enforces per-TU deadlines without killing threads: the
     * watchdog sets the flag, the compile unwinds at the next
     * checkpoint. The pointee must outlive the compile.
     */
    const std::atomic<bool> *cancel = nullptr;
    /**
     * Per-TU RTL growth budget: when nonzero, a checkpoint at which
     * the program holds more than this many RTL instructions raises
     * CancelledError ("rtl-budget"). A deterministic resource fuse
     * for batch service mode; 0 disables.
     */
    int64_t maxRtlInsts = 0;
    /**
     * Fault injection for the batch runner's self-test ONLY: panic
     * (WS_PANIC, i.e. throw InternalError) right after expansion, at
     * every degradation level, so the serve ladder cannot rescue the
     * TU and must quarantine it with a typed panic record. Hidden
     * behind `wmc --inject-panic-tu` / `wmfuzz --batch-campaign
     * --inject-panic-tu`; nothing else may set it.
     */
    bool injectPanicTu = false;
    /**
     * Test hook (serve_test ONLY): block this many milliseconds at
     * the first pipeline checkpoint, polling `cancel` every
     * millisecond, so a per-TU deadline reliably expires while the
     * compile is provably still responsive to cancellation.
     */
    int testStallMs = 0;
    /**
     * Fault injection for the IR verifier's self-test ONLY: after
     * streaming, drop the FIFO dequeue of one non-steering input
     * stream (its single use reads the zero register instead), so
     * the static FIFO-balance linter has a real miscompile to catch
     * at compile time — one the deadlock watchdog could previously
     * only catch at cycle four thousand. Hidden behind
     * `wmc --inject-verifier-bug` / `wmfuzz --inject-verifier-bug`;
     * nothing else may set it.
     */
    bool injectVerifierBug = false;
};

/** Compilation output plus per-pass reports for the harnesses. */
struct CompileResult
{
    bool ok = false;
    std::unique_ptr<rtl::Program> program;
    rtl::MachineTraits traits;
    std::string diagnostics;
    std::vector<recurrence::RecurrenceReport> recurrenceReports;
    std::vector<streaming::StreamingReport> streamingReports;
    std::vector<streaming::VectorizeReport> vectorizeReports;
    /** Filled when CompileOptions::profilePasses; execution order. */
    std::vector<obs::PassProfile> passProfiles;
    /**
     * Always collected (cost is proportional to the number of loops):
     * structured optimization remarks from the recurrence and streaming
     * passes plus the loop-id registry, and a `cleanup`
     * `fixpoint-cap-hit` remark for any cleanup that stopped at
     * opt::kCleanupRoundCap still changing code (args `cap` and
     * `after_pass`, the profiler label of that cleanup), and a
     * `regalloc` one (arg `cap`) for a register allocation that did
     * not converge in opt::kRegAllocAttemptCap attempts. After
     * compilation every RTL
     * instruction inside a loop carries the matching loop id
     * (Inst::loopId), so simulator cycle buckets join remarks on it.
     */
    obs::RemarkCollector remarks;
    /**
     * IR-verifier findings (CompileOptions::verify): one report per
     * checkpoint that found violations; clean checkpoints are only
     * counted. Violations are also mirrored into `remarks` under
     * pass "verify" with the provoking pass as an argument.
     */
    std::vector<verify::VerifyReport> verifyReports;
    int verifyCheckpoints = 0; ///< checkpoints run (clean included)
    /**
     * Each-mode checkpoints skipped because the pass before them
     * reported no change (recurrence, streaming, vectorize,
     * branch-anticipate, strength-reduce).
     */
    int verifySkipped = 0;
    /**
     * Whole-program FIFO verdict (CompileOptions::inferFifoDepth):
     * deadlock-freedom and per-queue minimal depths. `analyzed` is
     * false when the analysis did not run (option off or scalar
     * target).
     */
    verify::FifoRequirements fifoRequirements;

    bool verifyClean() const { return verifyReports.empty(); }
    /** Every verifier violation as diagnostic lines ("" if clean). */
    std::string verifyText() const;

    int totalRecurrences() const;
    int totalStreams() const;
    int totalVectorized() const;
};

/**
 * One compilation request for the library API: everything a compile
 * needs, as a value. The driver keeps no global or static mutable
 * state (see DESIGN.md §9's reentrancy audit), so any number of
 * compile() calls may run concurrently on different requests — the
 * serve batch runner compiles thousands of TUs across a ThreadPool
 * this way.
 */
struct CompileRequest
{
    /** Caller's identity for the TU (manifest path, synthetic id);
     *  carried through for reports, never interpreted. */
    std::string id;
    std::string source;
    CompileOptions options;
};

/**
 * Compile @p req. Lays the program out.
 *
 * Failure contract: user errors (diagnostics) and a register
 * allocation that stops at its attempt cap return ok == false;
 * internal invariant violations throw InternalError; a tripped
 * CompileOptions::cancel flag or maxRtlInsts budget throws
 * CancelledError. Library embedders catch both exception types per
 * TU; the tools translate InternalError to exit 70 at the process
 * boundary.
 */
CompileResult compile(const CompileRequest &req);

/** Compile mini-C @p source with @p options. Lays the program out.
 *  Convenience shim over compile() for single-TU callers. */
CompileResult compileSource(const std::string &source,
                            const CompileOptions &options);

} // namespace wmstream::driver

#endif // WMSTREAM_DRIVER_COMPILER_H
