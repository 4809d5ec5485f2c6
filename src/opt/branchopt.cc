#include <algorithm>
#include <functional>
#include <queue>
#include <string_view>

#include "opt/passes.h"
#include "support/diag.h"

namespace wmstream::opt {

using rtl::Block;
using rtl::Inst;
using rtl::InstKind;

namespace {

/**
 * Layout index by label, built once per call: threading looks up every
 * branch target. Among equal labels the first block wins, as in
 * Function::findBlock.
 */
class LabelIndex
{
  public:
    static constexpr size_t npos = static_cast<size_t>(-1);

    explicit LabelIndex(const rtl::Function &fn)
    {
        const auto &blocks = fn.blocks();
        byLabel_.reserve(blocks.size());
        for (size_t i = 0; i < blocks.size(); ++i)
            byLabel_.emplace_back(blocks[i]->label(), i);
        std::stable_sort(byLabel_.begin(), byLabel_.end(),
                         [](const auto &x, const auto &y) {
                             return x.first < y.first;
                         });
    }

    size_t find(std::string_view label) const
    {
        auto it = std::lower_bound(
            byLabel_.begin(), byLabel_.end(), label,
            [](const auto &e, std::string_view l) { return e.first < l; });
        return it != byLabel_.end() && it->first == label ? it->second
                                                          : npos;
    }

  private:
    std::vector<std::pair<std::string_view, size_t>> byLabel_;
};

/**
 * Resolve @p label through empty blocks and trivial jump blocks to the
 * label ultimately reached.
 */
std::string_view
threadTarget(const rtl::Function &fn, const LabelIndex &labels,
             std::string_view label)
{
    const auto &blocks = fn.blocks();
    std::string_view cur = label;
    std::vector<std::string_view> seen;
    for (;;) {
        size_t i = labels.find(cur);
        if (i == LabelIndex::npos)
            return cur;
        const Block *b = blocks[i].get();
        std::string_view next;
        if (b->insts.empty() && i + 1 < blocks.size())
            next = blocks[i + 1]->label(); // falls through
        else if (b->insts.size() == 1 && b->insts[0].kind == InstKind::Jump)
            next = b->insts[0].target;
        else
            return cur;
        if (std::find(seen.begin(), seen.end(), cur) != seen.end())
            return cur; // cycle (e.g. empty infinite loop)
        seen.push_back(cur);
        cur = next;
    }
}

/** True if @p b's code can run on into the block laid out after it. */
bool
fallsThrough(const Block *b)
{
    const Inst *t = b->terminator();
    return !t || t->kind == InstKind::CondJump ||
           t->kind == InstKind::JumpStream;
}

} // anonymous namespace

int
runBranchOpt(rtl::Function &fn)
{
    int changes = 0;

    // 1. Thread branches through empty/jump-only blocks.
    LabelIndex labels(fn);
    for (auto &bp : fn.blocks()) {
        for (Inst &inst : bp->insts) {
            if (!inst.isBranch())
                continue;
            std::string_view t = threadTarget(fn, labels, inst.target);
            if (t != inst.target) {
                inst.target = std::string(t);
                ++changes;
            }
        }
    }

    // 2. Delete jumps (conditional or not) to the next block in layout.
    auto &blocks = fn.blocks();
    for (size_t i = 0; i + 1 < blocks.size(); ++i) {
        Block *b = blocks[i].get();
        if (b->insts.empty())
            continue;
        Inst &last = b->insts.back();
        if ((last.kind == InstKind::Jump ||
             last.kind == InstKind::CondJump) &&
                last.target == blocks[i + 1]->label()) {
            // Removing a CondJump leaves its compare unconsumed — on
            // WM that is a CC-FIFO enqueue nothing will ever dequeue,
            // not just dead code. Every cleanup round therefore runs
            // dead-code elimination after this pass (never before it
            // as the round's last step), so the compare is always
            // collected before the verifier or the hardware sees it.
            b->insts.pop_back();
            ++changes;
        }
    }

    fn.removeUnreachable();

    // 3. Merge single-predecessor fallthrough/jump chains, always the
    // first mergeable block in layout order. A merge of s into b can
    // only change whether b, b's predecessors and the block laid out
    // before s may merge, so only those are queued again; the edges
    // are updated in place and the layout keeps a hole where s was
    // until the end.
    auto &bs = fn.blocks();
    size_t n = bs.size();
    constexpr size_t none = static_cast<size_t>(-1);
    std::vector<size_t> slot(static_cast<size_t>(fn.blockIdBound()), none);
    std::vector<size_t> next(n), prev(n);
    for (size_t i = 0; i < n; ++i) {
        slot[static_cast<size_t>(bs[i]->id())] = i;
        next[i] = i + 1 < n ? i + 1 : none;
        prev[i] = i > 0 ? i - 1 : none;
    }
    auto slotOf = [&](const Block *b) {
        return slot[static_cast<size_t>(b->id())];
    };
    std::vector<uint8_t> gone(n, 0);
    std::priority_queue<size_t, std::vector<size_t>, std::greater<>> queue;
    for (size_t i = 0; i < n; ++i)
        queue.push(i);
    while (!queue.empty()) {
        size_t i = queue.top();
        queue.pop();
        if (gone[i])
            continue;
        Block *b = bs[i].get();
        if (b->succs.size() != 1)
            continue;
        Block *s = b->succs[0];
        if (s == b || s->preds.size() != 1)
            continue;
        if (s == fn.entry())
            continue;
        // b's terminator must be nothing or a jump straight to s.
        const Inst *term = b->terminator();
        if (term && term->kind != InstKind::Jump)
            continue;
        // If s falls through, the merge is only safe when s sits
        // directly after b in layout (the fallthrough target would
        // change otherwise).
        size_t j = slotOf(s);
        if (fallsThrough(s) && next[i] != j)
            continue;
        if (term)
            b->insts.pop_back();
        for (Inst &inst : s->insts)
            b->insts.push_back(std::move(inst));
        s->insts.clear();
        b->succs = std::move(s->succs);
        s->succs.clear();
        s->preds.clear();
        for (Block *t : b->succs)
            std::replace(t->preds.begin(), t->preds.end(), s, b);
        gone[j] = 1;
        if (prev[j] != none)
            next[prev[j]] = next[j];
        if (next[j] != none)
            prev[next[j]] = prev[j];
        ++changes;
        queue.push(i);
        for (Block *p : b->preds)
            queue.push(slotOf(p));
        if (prev[j] != none)
            queue.push(prev[j]);
    }
    std::erase_if(bs, [&](const std::unique_ptr<Block> &b) {
        return gone[slotOf(b.get())];
    });

    fn.recomputeCfg();
    return changes;
}

} // namespace wmstream::opt
