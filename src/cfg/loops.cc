#include "cfg/loops.h"

#include <algorithm>

#include "support/diag.h"

namespace wmstream::cfg {

using rtl::Block;
using rtl::Inst;
using rtl::InstKind;

SourcePos
loopPos(const Loop &loop)
{
    for (const Inst &inst : loop.header->insts)
        if (inst.pos.valid())
            return inst.pos;
    for (Block *b : loop.blocks)
        for (const Inst &inst : b->insts)
            if (inst.pos.valid())
                return inst.pos;
    return {};
}

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

    auto &blocks = fn.blocks();
    size_t hIdx = 0;
    while (blocks[hIdx].get() != header)
        ++hIdx;

    // Layout-predecessor handling: if the block laid out just before the
    // header falls through into it and is *inside* the loop, give it an
    // explicit jump (via a stub block) so the new preheader does not
    // capture the back edge. The stub stays on the back edge: its jump
    // is not retargeted below.
    Block *stub = nullptr;
    if (hIdx > 0) {
        Block *prev = blocks[hIdx - 1].get();
        bool fallsThrough = true;
        if (const Inst *t = prev->terminator())
            fallsThrough = t->kind != InstKind::Jump &&
                           t->kind != InstKind::Return;
        if (fallsThrough && loop.contains(prev)) {
            if (!prev->terminator()) {
                // The fallthrough edge becomes a jump edge: same edges.
                prev->insts.push_back(rtl::makeJump(header->label()));
            } else {
                // Conditional fallthrough: route it through a stub. The
                // fallthrough edge is prev's last successor edge and
                // its last entry among the header's predecessors.
                stub = fn.insertBlockBefore(header);
                stub->insts.push_back(rtl::makeJump(header->label()));
                ++hIdx;
                prev->succs.back() = stub;
                stub->preds.push_back(prev);
                stub->succs.push_back(header);
                *std::find(header->preds.rbegin(), header->preds.rend(),
                           prev) = stub;
            }
        }
    }

    Block *pre = fn.insertBlockBefore(header);

    // Every edge into the header from outside the loop now enters the
    // preheader: a branch is retargeted, and the fallthrough from the
    // block laid out before the header now falls into the preheader.
    std::vector<Block *> inside;
    for (Block *p : header->preds) {
        if (loop.contains(p) || p == stub) {
            inside.push_back(p);
            continue;
        }
        *std::find(p->succs.begin(), p->succs.end(), header) = pre;
        pre->preds.push_back(p);
        if (Inst *t = p->terminator();
                t && t->isBranch() && t->target == header->label())
            t->target = pre->label();
    }
    // The header lists its sources in layout order; the preheader sits
    // right before it, after every block laid out before the header.
    size_t before = 0;
    for (size_t i = 0; i < hIdx; ++i)
        before += static_cast<size_t>(
            std::count(inside.begin(), inside.end(), blocks[i].get()));
    inside.insert(inside.begin() + static_cast<ptrdiff_t>(before), pre);
    header->preds = std::move(inside);
    pre->succs.push_back(header);
#ifndef NDEBUG
    WS_ASSERT(fn.cfgIsCurrent(), "preheader insertion left stale edges");
#endif
    return pre;
}

void
appendToPreheader(rtl::Block *pre, rtl::Inst inst)
{
    auto at = pre->insts.end();
    if (pre->terminator())
        --at;
    pre->insts.insert(at, std::move(inst));
}

bool
executesEveryIteration(const Loop &loop, const DominatorTree &dt,
                       const rtl::Block *b)
{
    for (const Block *latch : loop.latches)
        if (!dt.dominates(b, latch))
            return false;
    return true;
}

namespace {

/** Re-scan the blocks a visit of @p loop may have edited. */
void
rescanFootprint(DefUseTable &table, const Loop &loop)
{
    std::vector<Block *> outside;
    auto once = [&](Block *b) {
        if (std::find(outside.begin(), outside.end(), b) == outside.end()) {
            outside.push_back(b);
            table.rescan(b);
        }
    };
    for (Block *b : loop.blocks)
        table.rescan(b);
    for (Block *p : loop.header->preds)
        if (!loop.contains(p))
            once(p);
    for (Block *b : loop.blocks)
        for (Block *s : b->succs)
            if (!loop.contains(s))
                once(s);
}

} // anonymous namespace

void
forEachLoop(rtl::Function &fn, const rtl::MachineTraits &traits,
            bool innermostOnly, const LoopVisitor &visit)
{
    fn.recomputeCfg();
    DominatorTree dt(fn);
    LoopInfo li(fn, dt);
    DefUseTable table(fn, traits);
    std::vector<Block *> order;
    for (const Loop &loop : li.loops())
        if (!innermostOnly || li.isInnermost(loop))
            order.push_back(loop.header);
    for (Block *header : order) {
        for (LoopVisit v = LoopVisit::Again; v == LoopVisit::Again;) {
            Loop *loop = li.find(header);
            WS_ASSERT(loop, "loop sweep lost a loop header");
            size_t blocks = fn.blocks().size();
            v = visit(*loop, dt, table);
            if (v == LoopVisit::Unchanged) {
                WS_ASSERT(fn.blocks().size() == blocks,
                          "an unchanged loop visit added blocks");
                continue;
            }
            rescanFootprint(table, *loop);
#ifndef NDEBUG
            WS_ASSERT(fn.cfgIsCurrent(), "a loop visit left stale edges");
            WS_ASSERT(table.matchesFunction(),
                      "def/use table out of date after a loop visit");
#endif
            if (fn.blocks().size() != blocks) {
                dt = DominatorTree(fn);
                li = LoopInfo(fn, dt);
            }
        }
    }
}

} // namespace wmstream::cfg
