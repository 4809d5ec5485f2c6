#include "dataflow/cfg_index.h"

namespace wmstream::dataflow {

CfgIndex::CfgIndex(rtl::Function &fn)
{
    blocks_.reserve(fn.blocks().size());
    indexMap_.assign(static_cast<size_t>(fn.blockIdBound()), -1);
    for (auto &b : fn.blocks()) {
        indexMap_[static_cast<size_t>(b->id())] =
            static_cast<int>(blocks_.size());
        blocks_.push_back(b.get());
    }
    size_t n = blocks_.size();
    succs_.resize(n);
    preds_.resize(n);
    for (size_t i = 0; i < n; ++i) {
        succs_[i].reserve(blocks_[i]->succs.size());
        for (rtl::Block *s : blocks_[i]->succs)
            succs_[i].push_back(indexOf(s));
        preds_[i].reserve(blocks_[i]->preds.size());
        for (rtl::Block *p : blocks_[i]->preds)
            preds_[i].push_back(indexOf(p));
    }

    // Iterative DFS post-order from entry. A "visited" mark per block
    // plus an explicit stack of (node, next-successor) frames keeps
    // this linear and recursion-free even on pathological CFGs.
    if (n) {
        std::vector<uint8_t> visited(n, 0);
        std::vector<std::pair<size_t, size_t>> stack;
        stack.reserve(n);
        visited[0] = 1;
        stack.emplace_back(0, 0);
        postOrder_.reserve(n);
        while (!stack.empty()) {
            auto &[node, next] = stack.back();
            if (next < succs_[node].size()) {
                size_t s = succs_[node][next++];
                if (!visited[s]) {
                    visited[s] = 1;
                    stack.emplace_back(s, 0);
                }
            } else {
                postOrder_.push_back(node);
                stack.pop_back();
            }
        }
        rpo_.assign(postOrder_.rbegin(), postOrder_.rend());
        // Blocks never reached from entry (possible mid-pass, before
        // removeUnreachable) are tacked on so solvers still
        // initialize and visit them.
        for (size_t i = 0; i < n; ++i)
            if (!visited[i]) {
                rpo_.push_back(i);
                postOrder_.push_back(i);
            }
    }
}

} // namespace wmstream::dataflow
