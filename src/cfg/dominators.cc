#include "cfg/dominators.h"

#include <algorithm>

#include "support/diag.h"

namespace wmstream::cfg {

using rtl::Block;

DominatorTree::DominatorTree(rtl::Function &fn)
{
    Block *entry = fn.entry();
    WS_ASSERT(entry, "dominators of empty function");
    auto id = [](const Block *b) { return static_cast<size_t>(b->id()); };
    size_t ids = static_cast<size_t>(fn.blockIdBound());
    idom_.assign(ids, nullptr);
    rpoNum_.assign(ids, -1);

    // Depth-first post-order, then reverse. rpoNum_ marks visits
    // until the numbering below overwrites it.
    std::vector<Block *> post;
    std::vector<std::pair<Block *, size_t>> stack;
    stack.emplace_back(entry, 0);
    rpoNum_[id(entry)] = 0;
    while (!stack.empty()) {
        auto &[b, i] = stack.back();
        if (i < b->succs.size()) {
            Block *s = b->succs[i++];
            if (rpoNum_[id(s)] < 0) {
                rpoNum_[id(s)] = 0;
                stack.emplace_back(s, 0);
            }
        } else {
            post.push_back(b);
            stack.pop_back();
        }
    }
    rpo_.assign(post.rbegin(), post.rend());
    for (size_t i = 0; i < rpo_.size(); ++i)
        rpoNum_[id(rpo_[i])] = static_cast<int>(i);

    // Cooper-Harvey-Kennedy iteration.
    idom_[id(entry)] = entry;
    auto intersect = [&](Block *a, Block *b) {
        while (a != b) {
            while (rpoNum_[id(a)] > rpoNum_[id(b)])
                a = idom_[id(a)];
            while (rpoNum_[id(b)] > rpoNum_[id(a)])
                b = idom_[id(b)];
        }
        return a;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (Block *b : rpo_) {
            if (b == entry)
                continue;
            Block *newIdom = nullptr;
            for (Block *p : b->preds) {
                if (rpoNum_[id(p)] < 0 || !idom_[id(p)])
                    continue; // unreachable or not yet processed
                newIdom = newIdom ? intersect(newIdom, p) : p;
            }
            if (newIdom && idom_[id(b)] != newIdom) {
                idom_[id(b)] = newIdom;
                changed = true;
            }
        }
    }
}

Block *
DominatorTree::idom(const Block *b) const
{
    size_t i = static_cast<size_t>(b->id());
    if (i >= idom_.size() || idom_[i] == b)
        return nullptr;
    return idom_[i];
}

bool
DominatorTree::dominates(const Block *a, const Block *b) const
{
    const Block *x = b;
    for (;;) {
        if (x == a)
            return true;
        size_t i = static_cast<size_t>(x->id());
        if (i >= idom_.size() || !idom_[i] || idom_[i] == x)
            return false;
        x = idom_[i];
    }
}

} // namespace wmstream::cfg
