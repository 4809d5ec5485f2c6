/**
 * @file
 * Natural loop detection.
 *
 * Finds back edges (tail -> header where the header dominates the
 * tail), builds the natural loop of each back edge, and merges loops
 * sharing a header. Provides the loop preheader (creating one when
 * needed), latch and exit sets, and the one sweep that drives the loop
 * passes (LICM, strength reduction, recurrence, streaming) over them.
 */

#ifndef WMSTREAM_CFG_LOOPS_H
#define WMSTREAM_CFG_LOOPS_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cfg/defuse.h"
#include "cfg/dominators.h"
#include "rtl/inst.h"
#include "rtl/machine.h"

namespace wmstream::cfg {

/**
 * Set of blocks with deterministic (insertion-order) iteration.
 *
 * Passes iterate loop blocks and emit code in that order; a set keyed
 * by block address would make the iteration order depend on heap
 * addresses, so two compiles of the same source in one process could
 * produce differently-ordered (but equivalent) output. The vector
 * preserves the discovery order, which is a pure function of the CFG;
 * a bit per block id keeps membership tests O(1).
 */
class BlockSet
{
  public:
    /** Insert @p b; returns true when it was not already present. */
    bool insert(rtl::Block *b)
    {
        auto id = static_cast<size_t>(b->id());
        if (id >= bits_.size())
            bits_.resize(id + 1, 0);
        if (bits_[id])
            return false;
        bits_[id] = 1;
        vec_.push_back(b);
        return true;
    }
    size_t count(const rtl::Block *b) const
    {
        auto id = static_cast<size_t>(b->id());
        return id < bits_.size() ? bits_[id] : 0;
    }
    size_t size() const { return vec_.size(); }
    bool empty() const { return vec_.empty(); }
    std::vector<rtl::Block *>::const_iterator begin() const
    {
        return vec_.begin();
    }
    std::vector<rtl::Block *>::const_iterator end() const
    {
        return vec_.end();
    }

  private:
    std::vector<rtl::Block *> vec_;
    std::vector<uint8_t> bits_;
};

/** One natural loop. */
struct Loop
{
    rtl::Block *header = nullptr;
    /** Blocks in the loop, header included; iterates in discovery order. */
    BlockSet blocks;
    /** In-loop predecessors of the header (sources of back edges). */
    std::vector<rtl::Block *> latches;
    /** In-loop blocks with a successor outside the loop. */
    std::vector<rtl::Block *> exiting;

    bool contains(const rtl::Block *b) const
    {
        return blocks.count(const_cast<rtl::Block *>(b)) != 0;
    }
};

/**
 * Best source position for @p loop: the first stamped instruction of
 * the header, else the first stamped instruction anywhere in the loop.
 */
SourcePos loopPos(const Loop &loop);

/** All natural loops of a function, innermost first. */
class LoopInfo
{
  public:
    /** Analyze @p fn using @p dt (CFG must be current). */
    LoopInfo(rtl::Function &fn, const DominatorTree &dt);

    std::vector<Loop> &loops() { return loops_; }
    const std::vector<Loop> &loops() const { return loops_; }

    /** The loop headed by @p header, or null. */
    Loop *find(const rtl::Block *header);

    /** True if no other loop is nested inside @p loop. */
    bool isInnermost(const Loop &loop) const;

  private:
    std::vector<Loop> loops_;
};

/**
 * Return the preheader of @p loop: the unique out-of-loop predecessor
 * of the header whose only successor is the header. Creates one when
 * it does not exist, and then updates the CFG edges of the blocks it
 * touches itself (the header, its predecessors, the new block and a
 * stub), in the order Function::recomputeCfg would give them. The
 * CFG edges must be current on entry.
 */
rtl::Block *ensurePreheader(rtl::Function &fn, Loop &loop);

/** Append @p inst to the preheader @p pre, before its terminator. */
void appendToPreheader(rtl::Block *pre, rtl::Inst inst);

/**
 * True if @p b runs once on every iteration of @p loop: it dominates
 * every latch.
 */
bool executesEveryIteration(const Loop &loop, const DominatorTree &dt,
                            const rtl::Block *b);

/** What a loop visit did to the code. */
enum class LoopVisit : uint8_t
{
    Unchanged, ///< nothing
    Changed,   ///< edited its footprint; the loop is done
    Again,     ///< edited its footprint; visit the loop again
};

/**
 * Visit a loop, with the sweep's dominator tree and def/use table.
 *
 * The footprint contract (DESIGN §17): a visit may edit the
 * instructions of the loop's blocks, of its preheader and of its exit
 * targets, create a preheader or stub with ensurePreheader, and
 * retarget branches; it keeps the CFG edges current and deletes no
 * block. The table is current when the visit starts; the sites it
 * gives in a block the visit has edited are stale.
 */
using LoopVisitor = std::function<LoopVisit(Loop &, const DominatorTree &,
                                            const DefUseTable &)>;

/**
 * The loop-pass driver: one sweep over the loops of @p fn, innermost
 * first (innermost loops only when @p innermostOnly), in the order of
 * the LoopInfo built on entry. Each loop is visited until @p visit
 * stops returning LoopVisit::Again.
 *
 * The analyses are built once. After a visit that changed code the
 * def/use table re-scans only the visit's footprint: the loop's
 * blocks, the header's out-of-loop predecessors (the preheader) and
 * the loop's exit targets. The dominator tree and loops are rebuilt
 * only when a visit adds blocks (a new preheader or stub); the loop is
 * then found again by its header. Reuse is sound because a visit
 * deletes no block and keeps its loop's edges, and a new block only
 * splits an edge, which leaves dominance between the existing blocks
 * unchanged. Builds without NDEBUG check the table and the edges
 * against fresh ones after every changed visit.
 */
void forEachLoop(rtl::Function &fn, const rtl::MachineTraits &traits,
                 bool innermostOnly, const LoopVisitor &visit);

} // namespace wmstream::cfg

#endif // WMSTREAM_CFG_LOOPS_H
