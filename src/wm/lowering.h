/**
 * @file
 * WM FIFO-form lowering.
 *
 * On WM, "a load instruction only computes an address; the destination
 * is implicitly the input FIFO", and stores pair an address computation
 * with data enqueued by writing register 0. Through the optimizer we
 * keep loads/stores in the machine-independent register form; this late
 * pass converts post-register-assignment code to the real WM shape:
 *
 *     Load  rD := M[a]      becomes   Load (fifo0) := M[a]   (addr gen)
 *                                     rD := r0/f0            (dequeue)
 *     Store M[a] := rS      becomes   r0/f0 := rS            (enqueue)
 *                                     Store M[a] := (fifo0)  (addr gen)
 *
 * followed by two peepholes that reproduce the paper's figures: a
 * dequeue whose single use can consume the FIFO directly is folded into
 * the use (Figure 4's `f0 := (f0-f0)*f20`), and an enqueue immediately
 * after the computation of its value absorbs the computation.
 * Both peepholes preserve FIFO ordering: a dequeue is never moved past
 * another read of the same queue, nor folded into a use that already
 * reads that queue.
 */

#ifndef WMSTREAM_WM_LOWERING_H
#define WMSTREAM_WM_LOWERING_H

#include "rtl/machine.h"
#include "rtl/program.h"

namespace wmstream::wm {

/** Statistics from lowering (for tests). */
struct LoweringReport
{
    int loadsLowered = 0;
    int storesLowered = 0;
    int dequeuesFolded = 0;
    int enqueuesFolded = 0;
};

/**
 * Lower @p fn (which must already be register-assigned: no virtual
 * registers) to WM FIFO form. Panics on remaining virtual registers.
 */
LoweringReport lowerToFifoForm(rtl::Function &fn,
                               const rtl::MachineTraits &traits);

/** Convenience: lower every function of @p prog. */
LoweringReport lowerProgram(rtl::Program &prog,
                            const rtl::MachineTraits &traits);

} // namespace wmstream::wm

#endif // WMSTREAM_WM_LOWERING_H
