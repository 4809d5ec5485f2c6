/**
 * @file
 * Dominator tree computation over rtl::Function CFGs.
 *
 * Uses the Cooper–Harvey–Kennedy iterative algorithm on a reverse
 * post-order numbering. The streaming pass needs dominance twice: a
 * memory reference may be streamed only if its block dominates every
 * block that branches back to the loop header (it executes on every
 * iteration), and its execution count depends on whether it dominates
 * the loop exits.
 */

#ifndef WMSTREAM_CFG_DOMINATORS_H
#define WMSTREAM_CFG_DOMINATORS_H

#include <vector>

#include "rtl/inst.h"

namespace wmstream::cfg {

/** Immediate-dominator map and dominance queries for one function. */
class DominatorTree
{
  public:
    /** Build for @p fn; the function's CFG edges must be current. */
    explicit DominatorTree(rtl::Function &fn);

    /** Immediate dominator of @p b (null for the entry block). */
    rtl::Block *idom(const rtl::Block *b) const;

    /** True if @p a dominates @p b (reflexive). */
    bool dominates(const rtl::Block *a, const rtl::Block *b) const;

    /** Blocks in reverse post-order. */
    const std::vector<rtl::Block *> &reversePostOrder() const
    {
        return rpo_;
    }

  private:
    /** Indexed by block id; null for blocks not reached from the entry
     *  (or created after the tree), the entry its own. */
    std::vector<rtl::Block *> idom_;
    /** Reverse post-order number by block id; -1 when not reached. */
    std::vector<int> rpoNum_;
    std::vector<rtl::Block *> rpo_;
};

} // namespace wmstream::cfg

#endif // WMSTREAM_CFG_DOMINATORS_H
