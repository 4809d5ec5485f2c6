/**
 * @file
 * Dense integer indexing of a function's CFG.
 *
 * The dataflow solvers never touch Block pointers in their inner
 * loops: CfgIndex numbers every block once (layout order), flattens
 * succ/pred edges into index vectors, and computes reverse post-order
 * and post-order traversals. Solvers then iterate plain ints over
 * contiguous arrays, which is what makes the pooled-bitset form fast.
 *
 * The index snapshots the CFG at construction; callers must build it
 * after recomputeCfg() and rebuild it if edges change.
 */

#ifndef WMSTREAM_DATAFLOW_CFG_INDEX_H
#define WMSTREAM_DATAFLOW_CFG_INDEX_H

#include <cstddef>
#include <vector>

#include "rtl/inst.h"
#include "support/diag.h"

namespace wmstream::dataflow {

class CfgIndex
{
  public:
    explicit CfgIndex(rtl::Function &fn);

    size_t size() const { return blocks_.size(); }
    rtl::Block *block(size_t i) const { return blocks_[i]; }
    /** Index of @p b; blocks unreachable from entry are still
     *  numbered (layout order covers every block). */
    size_t indexOf(const rtl::Block *b) const
    {
        WS_ASSERT(contains(b), "block not in the CFG index");
        return static_cast<size_t>(indexMap_[static_cast<size_t>(b->id())]);
    }
    bool contains(const rtl::Block *b) const
    {
        size_t id = static_cast<size_t>(b->id());
        return id < indexMap_.size() && indexMap_[id] >= 0;
    }

    const std::vector<size_t> &succs(size_t i) const { return succs_[i]; }
    const std::vector<size_t> &preds(size_t i) const { return preds_[i]; }

    /** Reverse post-order over blocks reachable from entry (entry
     *  first). Unreachable blocks are appended after, in layout
     *  order, so every block gets visited exactly once. */
    const std::vector<size_t> &rpo() const { return rpo_; }
    /** Post-order (exit-most first); reverse of rpo(). */
    const std::vector<size_t> &postOrder() const { return postOrder_; }

  private:
    std::vector<rtl::Block *> blocks_;
    /** Layout index by block id; -1 for ids not in the function. */
    std::vector<int> indexMap_;
    std::vector<std::vector<size_t>> succs_;
    std::vector<std::vector<size_t>> preds_;
    std::vector<size_t> rpo_;
    std::vector<size_t> postOrder_;
};

} // namespace wmstream::dataflow

#endif // WMSTREAM_DATAFLOW_CFG_INDEX_H
