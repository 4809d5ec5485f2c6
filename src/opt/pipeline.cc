#include "opt/passes.h"

namespace wmstream::opt {

namespace {

/**
 * The standard cleanup round, repeated until a round changes nothing
 * (at most four rounds). Branch optimization must precede dead-code
 * elimination inside a round: deleting a fallthrough CondJump leaves
 * its compare — on WM a CC-FIFO enqueue nothing will ever dequeue — for
 * DCE to collect, and the round cap means a later round is not
 * guaranteed to run.
 */
void
runCleanupRounds(rtl::Function &fn, const rtl::MachineTraits &traits)
{
    for (int round = 0; round < 4; ++round) {
        int changes = 0;
        changes += runBranchOpt(fn);
        changes += runCombine(fn, traits);
        changes += runCopyPropagate(fn, traits);
        changes += runLocalCSE(fn, traits);
        changes += runDeadCodeElim(fn, traits);
        if (!changes)
            break;
    }
}

} // anonymous namespace

void
runCleanupPipeline(rtl::Function &fn, const rtl::MachineTraits &traits,
                   const rtl::Program *prog)
{
    runLegalize(fn, traits);
    // The paper's optimizer reinvokes phases freely; the cleanup rounds
    // run before code motion and again only if LICM hoisted anything.
    // Otherwise LICM left the function as it was, and a second run
    // could only confirm the first run's fixpoint (or go on past its
    // round cap).
    runCleanupRounds(fn, traits);
    if (runLoopInvariantCodeMotion(fn, traits, prog))
        runCleanupRounds(fn, traits);
    fn.renumber();
}

} // namespace wmstream::opt
