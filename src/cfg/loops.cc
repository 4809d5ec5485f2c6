#include "cfg/loops.h"

#include <algorithm>

#include "support/diag.h"

namespace wmstream::cfg {

using rtl::Block;
using rtl::Inst;
using rtl::InstKind;

LoopInfo::LoopInfo(rtl::Function &fn, const DominatorTree &dt)
{
    // Find back edges and build the natural loop of each.
    for (auto &bp : fn.blocks()) {
        Block *tail = bp.get();
        for (Block *head : tail->succs) {
            if (!dt.dominates(head, tail))
                continue;
            // Natural loop: head plus all blocks that reach tail
            // without passing through head.
            Loop *loop = nullptr;
            for (auto &l : loops_)
                if (l.header == head)
                    loop = &l;
            if (!loop) {
                loops_.emplace_back();
                loop = &loops_.back();
                loop->header = head;
                loop->blocks.insert(head);
            }
            std::vector<Block *> work;
            if (loop->blocks.insert(tail))
                work.push_back(tail);
            else if (tail != head)
                work.push_back(tail); // revisit preds anyway
            while (!work.empty()) {
                Block *b = work.back();
                work.pop_back();
                for (Block *p : b->preds)
                    if (loop->blocks.insert(p))
                        work.push_back(p);
            }
        }
    }

    // Latches and exits.
    for (auto &loop : loops_) {
        for (Block *p : loop.header->preds)
            if (loop.contains(p))
                loop.latches.push_back(p);
        for (Block *b : loop.blocks) {
            for (Block *s : b->succs) {
                if (!loop.contains(s)) {
                    loop.exiting.push_back(b);
                    break;
                }
            }
        }
    }

    // Innermost first: fewer blocks first, and the header label as a
    // tie breaker between disjoint loops of the same size.
    std::sort(loops_.begin(), loops_.end(),
              [](const Loop &a, const Loop &b) {
                  if (a.blocks.size() != b.blocks.size())
                      return a.blocks.size() < b.blocks.size();
                  return a.header->label() < b.header->label();
              });
}

Loop *
LoopInfo::find(const Block *header)
{
    for (Loop &loop : loops_)
        if (loop.header == header)
            return &loop;
    return nullptr;
}

bool
LoopInfo::isInnermost(const Loop &loop) const
{
    // Natural loops with different headers are nested or disjoint, so
    // another loop is inside @p loop exactly when its header is.
    for (const Loop &other : loops_)
        if (other.header != loop.header && loop.contains(other.header))
            return false;
    return true;
}

rtl::Block *
ensurePreheader(rtl::Function &fn, Loop &loop)
{
    Block *header = loop.header;

    // Existing preheader?
    Block *outPred = nullptr;
    int numOut = 0;
    for (Block *p : header->preds) {
        if (!loop.contains(p)) {
            outPred = p;
            ++numOut;
        }
    }
    if (numOut == 1 && outPred->succs.size() == 1 &&
            outPred->succs[0] == header) {
        return outPred;
    }

    // Layout-predecessor handling: if the block laid out just before the
    // header falls through into it and is *inside* the loop, give it an
    // explicit jump (via a stub block) so the new preheader does not
    // capture the back edge.
    auto &blocks = fn.blocks();
    size_t hIdx = 0;
    for (size_t i = 0; i < blocks.size(); ++i)
        if (blocks[i].get() == header)
            hIdx = i;
    if (hIdx > 0) {
        Block *prev = blocks[hIdx - 1].get();
        bool fallsThrough = true;
        if (const Inst *t = prev->terminator())
            fallsThrough = t->kind != InstKind::Jump &&
                           t->kind != InstKind::Return;
        if (fallsThrough && loop.contains(prev)) {
            if (!prev->terminator()) {
                prev->insts.push_back(rtl::makeJump(header->label()));
            } else {
                // Conditional fallthrough: route it through a stub.
                Block *stub = fn.insertBlockBefore(header);
                stub->insts.push_back(rtl::makeJump(header->label()));
                ++hIdx;
            }
        }
    }

    Block *pre = fn.insertBlockBefore(header);

    // Redirect out-of-loop branches aimed at the header.
    for (auto &bp : fn.blocks()) {
        Block *b = bp.get();
        if (b == pre || loop.contains(b))
            continue;
        for (auto &inst : b->insts)
            if (inst.isBranch() && inst.target == header->label())
                inst.target = pre->label();
    }

    fn.recomputeCfg();
    return pre;
}

void
forEachLoop(rtl::Function &fn, bool innermostOnly, const LoopVisitor &visit)
{
    fn.recomputeCfg();
    DominatorTree dt(fn);
    LoopInfo li(fn, dt);
    std::vector<Block *> order;
    for (const Loop &loop : li.loops())
        if (!innermostOnly || li.isInnermost(loop))
            order.push_back(loop.header);
    for (Block *header : order) {
        for (bool again = true; again;) {
            Loop *loop = li.find(header);
            WS_ASSERT(loop, "loop sweep lost a loop header");
            size_t blocks = fn.blocks().size();
            again = visit(*loop, dt);
            if (fn.blocks().size() != blocks) {
                fn.recomputeCfg();
                dt = DominatorTree(fn);
                li = LoopInfo(fn, dt);
            }
        }
    }
}

} // namespace wmstream::cfg
