/**
 * @file
 * The classic optimizer phases.
 *
 * Mirrors the paper's Figure 3 phase structure: every phase consumes
 * and produces the same RTL representation, so the driver may invoke
 * any phase at any time ("this largely eliminates phase ordering
 * problems"). All phases keep the CFG edges current on exit.
 */

#ifndef WMSTREAM_OPT_PASSES_H
#define WMSTREAM_OPT_PASSES_H

#include "rtl/machine.h"
#include "rtl/program.h"

namespace wmstream::opt {

/**
 * Instruction combination: fold a single-use register definition into
 * its use when the merged RTL is a legal target instruction. This is
 * what forms WM dual-operation instructions and 68020 addressing modes
 * out of the expander's naive code.
 * @return number of instructions eliminated.
 */
int runCombine(rtl::Function &fn, const rtl::MachineTraits &traits);

/**
 * Reshape expander output into legal target instructions: materialize
 * symbol/large-constant operands into registers and split expression
 * trees deeper than the target's instruction shapes (dual-operation on
 * WM, single-operation on the scalar target).
 * @return number of materialization instructions inserted.
 */
int runLegalize(rtl::Function &fn, const rtl::MachineTraits &traits);

/**
 * Value propagation: copy and constant propagation and local common-
 * subexpression elimination in one forward walk per block. Each block
 * starts from the copies (a := b, a := c) that reach its entry on
 * every path, from a whole-function must-reaching-copies solve made
 * before the walk. For each instruction the walk
 *  1. rewrites operands through the known copies, where the result is
 *     still a legal instruction;
 *  2. replaces a pure expression or a load the block already holds in a
 *     virtual register by that register (a load becomes a copy); a
 *     full 8-byte store forwards its register to later loads of the
 *     cell;
 *  3. forgets what the instruction's defs change (stores, streams and
 *     calls forget every load);
 *  4. records its own copy, expression or load.
 * A replaced computation is itself a copy, so a chain of common
 * subexpressions inside a block collapses in one walk. A copy the walk
 * creates reaches later blocks only in the next call. Deleting the
 * then-dead copies is left to dead-code elimination.
 * @return number of operand rewrites plus replaced computations.
 */
int runValuePropagation(rtl::Function &fn,
                        const rtl::MachineTraits &traits);

/**
 * Global dead-code elimination of assignments and loads whose result
 * is never used (including unconsumed compares).
 * @return number of instructions deleted.
 */
int runDeadCodeElim(rtl::Function &fn, const rtl::MachineTraits &traits);

/**
 * Branch minimization: thread jumps to jumps, delete jumps to the next
 * block, merge single-predecessor fallthrough chains, drop unreachable
 * blocks.
 * @return number of simplifications.
 */
int runBranchOpt(rtl::Function &fn);

/**
 * Loop-invariant code motion of pure assignments into loop preheaders
 * (the paper performs "loop detection and code motion" before the
 * recurrence algorithm; this is what moves the _x/_y/_z address
 * materializations of Figure 4 out of the loop).
 * @return number of instructions hoisted.
 */
int runLoopInvariantCodeMotion(rtl::Function &fn,
                               const rtl::MachineTraits &traits,
                               const rtl::Program *prog = nullptr);

/**
 * Strength reduction of address computations (paper Step 3): rewrite
 * coeff*iv + base addresses into an incremented pointer register.
 * Applied on scalar targets, where it enables the 68020 auto-increment
 * addressing of Figure 6.
 * @return number of references rewritten.
 */
int runStrengthReduce(rtl::Function &fn, const rtl::MachineTraits &traits);

/**
 * Branch anticipation (WM): move each block's compare as early as its
 * operands allow, fusing a trailing induction-variable increment into
 * it (cc := (i+1) < n). The paper: "It is also the compiler's job to
 * arrange the code so that the computation of the condition code
 * occurs well before the result is needed. When this is done properly,
 * conditional jumps, like unconditional jumps, essentially have zero
 * cost."
 * @return number of compares moved.
 */
int runBranchAnticipate(rtl::Function &fn,
                        const rtl::MachineTraits &traits);

/** How a runRegAlloc call ended. */
struct RegAllocResult
{
    int attempts = 0;       ///< colorings tried, the successful one included
    bool allocated = false; ///< false: still uncolorable at the cap
};

/**
 * Register assignment: map virtual registers onto the architectural
 * files, inserting spill code when needed, and emit prologue/epilogue
 * (stack-pointer adjustment plus callee-saved save/restore). Each
 * attempt solves liveness, builds the interference graph as one bit
 * row per liveness key, and colors each file highest degree first
 * from register masks; an attempt that cannot color spills the first
 * node that found no register, and the next attempt starts over.
 * @return the attempts made; `allocated` is false if coloring still
 *         failed after kRegAllocAttemptCap attempts, and the function
 *         then still has virtual registers and must not be emitted.
 */
RegAllocResult runRegAlloc(rtl::Function &fn,
                           const rtl::MachineTraits &traits);

/** How a runCleanup call ended. */
struct CleanupResult
{
    int changes = 0;        ///< sub-pass changes summed over all rounds
    int rounds = 0;         ///< rounds run, a confirming one included
    bool converged = true;  ///< false: stopped at the cap, still changing
};

/**
 * Rounds one runCleanup call runs at most. No compile of the Table II
 * programs, Livermore 5 or 3,000 generated programs needs more than
 * three: two that change code and one that confirms (DESIGN §6).
 */
inline constexpr int kCleanupRoundCap = 4;

/** Coloring attempts one runRegAlloc call makes at most. */
inline constexpr int kRegAllocAttemptCap = 200;

/**
 * The one cleanup fixpoint: branch optimization, combine, value
 * propagation and dead-code elimination, repeated until a round
 * changes nothing or kCleanupRoundCap rounds have run. The driver runs
 * it after every pass that changed code.
 */
CleanupResult runCleanup(rtl::Function &fn,
                         const rtl::MachineTraits &traits);

/**
 * Run the standard pre-loop-optimization cleanup pipeline: legalize,
 * runCleanup, LICM, and runCleanup again if LICM hoisted anything.
 * When @p prog is given, loop-invariant loads of unaliased globals
 * (the classic "loop bound lives in memory" case) are hoisted too.
 * @return both cleanups' changes and rounds summed; `converged` is
 *         false if either stopped at its round cap.
 */
CleanupResult runCleanupPipeline(rtl::Function &fn,
                        const rtl::MachineTraits &traits,
                        const rtl::Program *prog = nullptr);

} // namespace wmstream::opt

#endif // WMSTREAM_OPT_PASSES_H
