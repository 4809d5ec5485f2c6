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

#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "cfg/dominators.h"
#include "rtl/inst.h"

namespace wmstream::cfg {

/**
 * Set of blocks with deterministic (insertion-order) iteration.
 *
 * Passes iterate loop blocks and emit code in that order; a plain
 * unordered_set of pointers would make the iteration order depend on
 * heap addresses, so two compiles of the same source in one process
 * could produce differently-ordered (but equivalent) output. The
 * vector preserves the discovery order, which is a pure function of
 * the CFG; the hash set keeps membership tests O(1).
 */
class BlockSet
{
  public:
    /** Insert @p b; returns true when it was not already present. */
    bool insert(rtl::Block *b)
    {
        if (!set_.insert(b).second)
            return false;
        vec_.push_back(b);
        return true;
    }
    size_t count(const rtl::Block *b) const
    {
        return set_.count(const_cast<rtl::Block *>(b));
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
    std::unordered_set<rtl::Block *> set_;
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
 * of the header whose only successor is the header. Creates one (and
 * fixes up CFG edges) when it does not exist.
 */
rtl::Block *ensurePreheader(rtl::Function &fn, Loop &loop);

/**
 * Visit a loop; return true if it changed the loop and wants to visit
 * it again.
 */
using LoopVisitor = std::function<bool(Loop &, const DominatorTree &)>;

/**
 * The loop-pass driver: one sweep over the loops of @p fn, innermost
 * first (innermost loops only when @p innermostOnly), in the order of
 * the LoopInfo built on entry. Each loop is visited until @p visit
 * returns false.
 *
 * The analyses are built once and rebuilt only when a visit adds
 * blocks (a new preheader or stub); the loop is then found again by
 * its header. Reuse is sound because a visit deletes no block and
 * keeps its loop's edges, and a new block only splits an edge, which
 * leaves dominance between the existing blocks unchanged.
 */
void forEachLoop(rtl::Function &fn, bool innermostOnly,
                 const LoopVisitor &visit);

} // namespace wmstream::cfg

#endif // WMSTREAM_CFG_LOOPS_H
