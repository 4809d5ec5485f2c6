/**
 * @file
 * Shared model of WM's architecturally visible queues.
 *
 * WM has ten queues: per execution unit (integer, float) an input
 * data FIFO pair (registers r0/r1, f0/f1 read side), an output data
 * FIFO pair (same register indices, write side — input and output
 * queues on one register index are DISTINCT hardware), and one
 * condition-code FIFO per unit. This header names the queues, derives
 * each instruction's push/pop shape from its operand positions, and
 * discovers streamed regions (loops fed by SCU streams primed in
 * their preheader).
 *
 * The per-pass FIFO discipline linter (fifolint.cc) walks the queues
 * with this model once per function; the whole-program
 * deadlock/depth-requirement analysis (fifodepth.cc) reads its verdict
 * off the QueueTraffic that walk records.
 */

#ifndef WMSTREAM_VERIFY_FIFO_MODEL_H
#define WMSTREAM_VERIFY_FIFO_MODEL_H

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cfg/loops.h"
#include "rtl/inst.h"
#include "rtl/machine.h"

namespace wmstream::verify::fifomodel {

// ---- queue identities ----------------------------------------------

constexpr int kDataQueues = 8; ///< {in,out} x {int,flt} x {fifo 0,1}
constexpr int kQueues = kDataQueues + 2; ///< + cc0, cc1

inline int
dataQ(bool output, int side, int fifo)
{
    return (output ? 4 : 0) + side * 2 + fifo;
}

inline int
ccQ(int side)
{
    return kDataQueues + side;
}

/** Stable display name: "in:r0", "out:f1", "cc0", ... */
std::string queueName(int q);

inline int
fifoSide(const rtl::Expr &e)
{
    return e.regFile() == rtl::RegFile::Flt ? 1 : 0;
}

/**
 * Where the walk's per-queue element count saturates: above twice the
 * deepest configurable data FIFO (`--fifo-depth` is at most 4096), so
 * every depth requirement that can matter is counted exactly. A
 * saturated count stays saturated, pops included, so a deep burst is
 * never mistaken for a starved queue.
 */
constexpr int kSaturatedDepth = 2 * 4096 + 1;

/**
 * Per-queue facts the discipline walk records (indexed by queue id)
 * for the whole-program depth analysis. Claimed queues are exempt
 * from the walk inside their streamed loop.
 */
struct QueueTraffic
{
    std::array<int, kQueues> highWater{};  ///< max count after a push
    std::array<bool, kQueues> touched{};   ///< any unexempt traffic
    std::array<bool, kQueues> saturated{}; ///< count hit the cap
    std::array<bool, kQueues> starved{};   ///< a pop found count 0
    std::array<bool, kQueues> claimed{};   ///< claimed by a stream
};

// ---- per-instruction transfer shape --------------------------------

enum class Field : uint8_t { Src, Addr, Extra };

const char *fieldName(Field f);

struct QueueUse
{
    int q;
    Field field;
};

struct InstQueueOps
{
    std::vector<QueueUse> pops;
    std::vector<int> pushes;
};

/**
 * Queue pushes/pops performed by @p inst, derived from operand shape:
 *
 *   pop  in(side,i):  any read of FIFO register i inside an operand
 *                     expression (Assign/Store sources, Load/Store
 *                     addresses, implicit uses);
 *   push in(side,i):  a scalar Load whose destination is FIFO reg i;
 *   push out(side,i): an Assign whose destination is FIFO reg i
 *                     (the lowered enqueue);
 *   pop  out(side,i): a Store whose source is EXACTLY FIFO reg i
 *                     (the lowered dequeue-to-memory);
 *   push cc(side):    an Assign whose destination is CC cell `side`;
 *   pop  cc(side):    a CondJump on that unit.
 *
 * Stream machinery (StreamIn/Out/Stop, JumpStream, VecOp) moves
 * elements on the SCU/VEU side and is inert here.
 */
InstQueueOps queueOps(const rtl::Inst &inst);

// ---- local backward value resolution -------------------------------

/**
 * Resolve @p e to the value it holds just before instruction @p idx
 * of @p b, by substituting straight-line Assign definitions backward
 * through the block. Registers defined by loads or clobbered by calls
 * freeze (stay symbolic, and earlier definitions of them must not
 * leak forward past the freeze point). Used to compare stream counts
 * that differ syntactically but were materialized from the same
 * preheader computation.
 */
rtl::ExprPtr resolveAt(const rtl::Block *b, size_t idx, rtl::ExprPtr e,
                       const rtl::MachineTraits &traits);

// ---- streamed regions ----------------------------------------------

struct StreamSite
{
    const rtl::Inst *inst = nullptr;
    const rtl::Block *block = nullptr;
    size_t index = 0;

    bool output() const
    {
        return inst->kind == rtl::InstKind::StreamOut;
    }
    int q() const
    {
        return dataQ(output(),
                     inst->side == rtl::UnitSide::Int ? 0 : 1,
                     inst->fifo);
    }
};

struct StreamRegion
{
    cfg::Loop *loop = nullptr;
    std::string header;
    std::vector<StreamSite> streams;
    bool finite = false;
    bool jumpStreamLatch = false;
    std::map<int, size_t> slotOf; ///< claimed queue -> streams index
    /** streams[] indices whose queue was already claimed (conflicts). */
    std::vector<size_t> claimConflicts;
};

/**
 * Discover the streamed region of every loop in @p li: stream sites
 * in the loop's preheader blocks, the claimed-queue map (first claim
 * wins; duplicates land in claimConflicts), the counted/finite flag,
 * and whether a latch is steered by a JumpStream. Loops with neither
 * streams nor a JumpStream latch are omitted.
 */
std::vector<StreamRegion> collectStreamRegions(cfg::LoopInfo &li);

/**
 * Compare two count expressions: structurally equal as written, or
 * equal after resolving both backward through their blocks. Fills
 * @p why with the rendered resolved pair on mismatch.
 */
bool countsAgree(const StreamSite &a, const rtl::Block *bBlock,
                 size_t bIndex, const rtl::ExprPtr &bCount,
                 const rtl::MachineTraits &traits, std::string *why);

} // namespace wmstream::verify::fifomodel

#endif // WMSTREAM_VERIFY_FIFO_MODEL_H
