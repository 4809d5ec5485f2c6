/**
 * @file
 * wmverify: the RTL/WM invariant verifier (DESIGN.md §12).
 *
 * Run in the spirit of LLVM's -verify-each: after expansion and after
 * every optimization pass the driver hands each function to
 * verifyFunction(), which checks three invariant families:
 *
 *  - structural IR validity: operand kinds and arity per opcode,
 *    branch targets resolve, terminators end blocks, the layout does
 *    not fall off the end of the function, no Mem nodes outside
 *    Load/Store, no virtual registers after register assignment, and
 *    def-before-use for virtual registers (a virtual register live
 *    into the entry block has a use no definition reaches);
 *
 *  - FIFO discipline (WM only): a forward dataflow analysis over
 *    abstract queue depths proving that condition-code production
 *    matches IFU branch consumption on every path, that every
 *    iteration of a streamed loop pops exactly one element from each
 *    claimed input FIFO and pushes exactly one to each claimed output
 *    FIFO (so the loop consumes exactly the `count` elements its
 *    preheader SinX primes), that the counts of all streams feeding
 *    one loop agree, that no instruction pops the same queue twice
 *    (FIFO reads may never be reordered across a pop on the same
 *    unit), and — after lowering — that scalar FIFO traffic balances:
 *    no underflow, no elements leaked at return, none held across a
 *    call;
 *
 *  - recurrence legality (verifyRecurrenceChains, run right after the
 *    recurrence pass, before cleanup legitimately dissolves chains):
 *    priming loads dominate the loop and the register shift chain is
 *    cycle-free and matches the recurrence distance.
 *
 * Violations carry a stable kebab-case reason code plus an invariant
 * identity (queue, register, or chain) so wmfuzz can deduplicate them
 * program-independently, and the driver mirrors them into the remarks
 * stream with pass provenance. A violation always means a compiler
 * bug, never a user error: wmc exits 70 on any verifier failure.
 */

#ifndef WMSTREAM_VERIFY_VERIFY_H
#define WMSTREAM_VERIFY_VERIFY_H

#include <string>
#include <vector>

#include "recurrence/recurrence.h"
#include "rtl/machine.h"
#include "rtl/program.h"
#include "support/diag.h"

namespace wmstream::verify {

namespace fifomodel {
struct QueueTraffic;
}

/** Where in the pipeline the check runs; selects which invariants
 *  apply (virtual registers legal? FIFO references legal? is scalar
 *  FIFO traffic fully lowered?). */
enum class Stage : uint8_t {
    PostExpand,   ///< after code expansion: virtual regs, no FIFO refs
    PostOpt,      ///< after a mid-pipeline optimization pass
    PostRegalloc, ///< after register assignment: no virtual regs
    PostLower,    ///< after WM FIFO-form lowering: final code
};

const char *stageName(Stage s);

/** One invariant violation (a compiler bug, never a user error). */
struct Violation
{
    std::string reason;     ///< stable kebab-case reason code
    std::string function;
    std::string block;      ///< offending block label ("" = function)
    std::string loopHeader; ///< loop header label when loop-scoped
    /**
     * Program-independent identity of the violated invariant: the
     * queue ("in:f0", "cc1"), register ("vr7"), or chain ("vf3..vf5")
     * it concerns. signature() is the wmfuzz dedup key.
     */
    std::string invariant;
    std::string detail;     ///< human-readable explanation
    int instId = -1;        ///< Inst::id when instruction-scoped
    SourcePos pos;          ///< source provenance when stamped

    /** Dedup key: reason code + invariant identity. */
    std::string signature() const;
    /** One diagnostic line (no trailing newline). */
    std::string str() const;
};

/** All violations found at one pipeline checkpoint. */
struct VerifyReport
{
    std::string pass;  ///< provenance: the pass that ran just before
    Stage stage = Stage::PostOpt;
    std::vector<Violation> violations;

    bool ok() const { return violations.empty(); }
    /** Multi-line rendering (header + one line per violation). */
    std::string str() const;
};

struct VerifyOptions
{
    Stage stage = Stage::PostOpt;
    std::string pass; ///< provenance recorded into the report
};

/**
 * The sorted, deduplicated, comma-joined Violation::signature() set
 * across @p reports ("" when all are clean): a program-independent
 * dedup key, shared by the wmfuzz verify oracle and the serve batch
 * runner's typed failure records, so one compiler bug folds into one
 * finding across any number of translation units.
 */
std::string joinedSignature(const std::vector<VerifyReport> &reports);

/**
 * Verify one function. Recomputes the CFG (checking branch targets
 * first, so malformed IR yields a diagnostic rather than a panic).
 * FIFO-discipline checks run only when @p traits is the WM machine.
 * @p prog, when given, lets Call targets be resolved.
 */
VerifyReport verifyFunction(rtl::Function &fn,
                            const rtl::MachineTraits &traits,
                            const VerifyOptions &opts,
                            const rtl::Program *prog = nullptr);

/** Verify every function of @p prog into one merged report. */
VerifyReport verifyProgram(rtl::Program &prog,
                           const rtl::MachineTraits &traits,
                           const VerifyOptions &opts);

/** Per-queue result of the whole-program FIFO analysis. */
struct QueueRequirement
{
    int queue = 0;         ///< fifomodel queue id
    std::string name;      ///< "in:f0", "out:r1", "cc0", ...
    int minDepth = 0;      ///< inferred minimal depth for this queue
    bool streamed = false; ///< SCU-claimed somewhere (HW-throttled)
    bool bounded = true;   ///< false when the count saturated
};

/**
 * Whole-program static FIFO deadlock/depth verdict (fifodepth.cc).
 *
 * Read off the queue-discipline walk over the full CFG — loop
 * boundaries included — which keeps one exact count per queue and
 * block. `verdict` is "deadlock-free" only when the structure and
 * discipline checks pass, no pop finds its queue at depth 0, and
 * every inferred minimal depth (the high-water count) fits the
 * configured depth; otherwise "not-proven" with the blocking
 * findings (reason codes static-starved-pop, fifo-depth-exceeded,
 * static-unproven) in `findings`.
 */
struct FifoRequirements
{
    bool analyzed = false;
    bool deadlockFree = false;
    std::string verdict = "not-analyzed";
    int configuredDepth = 0; ///< data FIFO depth checked against
    int minDepth = 0;        ///< max over data queues of minDepth
    std::vector<QueueRequirement> queues; ///< queues with traffic
    VerifyReport findings;   ///< pass "fifo-depth", stage PostLower

    bool depthSatisfied() const
    {
        return minDepth <= configuredDepth;
    }
};

/**
 * Run the whole-program FIFO analysis over lowered WM code. Performs
 * its own structure + queue-discipline checks (so it is safe on
 * arbitrary programs, e.g. straight from the fuzzer with verification
 * off) and reads the depths off that walk. @p configuredDepth is
 * the data-FIFO depth the hardware model will run with.
 */
FifoRequirements
analyzeFifoRequirements(rtl::Program &prog,
                        const rtl::MachineTraits &traits,
                        int configuredDepth);

/**
 * Check the chains the recurrence pass reports having built: shifts
 * present at the loop header in oldest-first (cycle-free) order, one
 * shift per distance step, and the preheader priming every chain
 * register below the degree from memory, dominating the header. Must
 * run before recurrence-cleanup, which legitimately dissolves chains.
 */
VerifyReport
verifyRecurrenceChains(rtl::Function &fn,
                       const rtl::MachineTraits &traits,
                       const std::vector<recurrence::RecurrenceChain> &chains,
                       const std::string &pass);

namespace detail {

/** Append a violation; caller fills the remaining fields. */
Violation &addViolation(VerifyReport &out, std::string reason,
                        const rtl::Function &fn);

/**
 * Structural checks (verify.cc). Returns true when every branch
 * target resolved — the CFG-dependent checks (liveness, queues) are
 * only sound, and recomputeCfg() only safe, in that case.
 */
bool checkStructure(rtl::Function &fn, const rtl::MachineTraits &traits,
                    const VerifyOptions &opts, const rtl::Program *prog,
                    VerifyReport &out);

/**
 * FIFO/CC discipline checks (fifolint.cc). CFG must be current. With
 * @p traffic set, the depth walk also records the per-queue facts
 * the whole-program analysis needs (fifo_model.h).
 */
void checkQueueDiscipline(rtl::Function &fn,
                          const rtl::MachineTraits &traits,
                          const VerifyOptions &opts, VerifyReport &out,
                          fifomodel::QueueTraffic *traffic = nullptr);

} // namespace detail

} // namespace wmstream::verify

#endif // WMSTREAM_VERIFY_VERIFY_H
