#include <algorithm>
#include <tuple>

#include "cfg/loops.h"
#include "opt/partitions.h"
#include "opt/passes.h"

namespace wmstream::opt {

using rtl::DataType;
using rtl::ExprPtr;
using rtl::Inst;
using rtl::Op;

namespace {

/** The references of one partition that walk one IV by one coefficient. */
struct Group
{
    const Partition *part;
    size_t ivPos;
    int64_t coeff;
    std::vector<const MemRef *> refs;
};

/**
 * The group to rewrite first: lowest IV position, then coefficient,
 * then base kind, then the base's text compared as a string, so a
 * register base vr12 comes before vr9.
 */
bool
rewriteBefore(const Group &a, const Group &b)
{
    auto rank = [](const Group &g) {
        return std::tuple(g.ivPos, g.coeff, g.part->key.kind,
                          g.part->key.str());
    };
    return rank(a) < rank(b);
}

/** True if @p addr is already reduced: a register, or register + constant. */
bool
reducedForm(const rtl::ExprPtr &addr)
{
    return addr->isReg() ||
           (addr->kind() == rtl::Expr::Kind::Bin && addr->op() == Op::Add &&
            addr->lhs()->isReg() && addr->rhs()->isConst());
}

int
reduceLoop(rtl::Function &fn, cfg::Loop &loop, const cfg::DominatorTree &dt,
           const cfg::DefUseTable &du, const rtl::MachineTraits &traits)
{
    IndVarAnalysis ivs(fn, loop, dt, du, traits);
    if (ivs.basicIVs().empty())
        return 0;

    // Within a partition, the references walked by one IV with one
    // coefficient form a group that shares one pointer.
    PartitionSet parts = buildPartitions(loop, ivs);
    std::vector<Group> groups;
    for (const Partition &p : parts.parts) {
        size_t first = groups.size();
        for (const MemRef &r : p.refs) {
            if (!r.iv || r.cee == 0 ||
                    reducedForm(r.block->insts[r.index].addr)) {
                continue;
            }
            auto ivPos = static_cast<size_t>(r.iv - ivs.basicIVs().data());
            auto g = std::find_if(
                groups.begin() + static_cast<ptrdiff_t>(first), groups.end(),
                [&](const Group &x) {
                    return x.ivPos == ivPos && x.coeff == r.cee;
                });
            if (g == groups.end())
                g = groups.insert(groups.end(), Group{&p, ivPos, r.cee, {}});
            g->refs.push_back(&r);
        }
    }
    if (groups.empty())
        return 0;

    // Process one group per invocation: preheader creation and bump
    // insertion invalidate the collected indexes, so the loop sweep
    // revisits the loop for the next group.
    const Group &g = *std::min_element(groups.begin(), groups.end(),
                                       rewriteBefore);
    const BasicIV *iv = g.refs[0]->iv;
    int64_t coeff = g.coeff;

    // The offset relative to the IV at entry to the iteration: a
    // reference after the increment saw one more step.
    auto adjOffset = [&](const MemRef &r) {
        bool incBefore = r.block == iv->defBlock
                             ? iv->defIndex < r.index
                             : dt.dominates(iv->defBlock, r.block);
        return r.roffset - (incBefore ? coeff * iv->step : 0);
    };
    int64_t minAdj = adjOffset(*g.refs[0]);
    for (const MemRef *r : g.refs)
        minAdj = std::min(minAdj, adjOffset(*r));

    // p := coeff*iv + base + minAdj, evaluated in the preheader where
    // the IV still holds its initial value (minAdj already folds in
    // any symbol offset through LinForm::offset).
    rtl::Block *pre = cfg::ensurePreheader(fn, loop);
    ExprPtr p = fn.newVReg(DataType::I64);
    materializeAddress(fn, pre, iv->reg, coeff, g.refs[0]->dee, minAdj,
                       {"strength-reduce scale", "strength-reduce base",
                        "strength-reduce pointer"},
                       p);

    // Rewrite references: addr = p + (adj - minAdj).
    for (const MemRef *r : g.refs) {
        Inst &inst = r->block->insts[r->index];
        inst.addr = rtl::makeBin(Op::Add, p,
                                 rtl::makeConst(adjOffset(*r) - minAdj));
    }

    // Advance the pointer right after the IV increment.
    Inst bump = rtl::makeAssign(
        p, rtl::makeBin(Op::Add, p, rtl::makeConst(coeff * iv->step)),
        "strength-reduce bump");
    iv->defBlock->insts.insert(
        iv->defBlock->insts.begin() + static_cast<ptrdiff_t>(iv->defIndex + 1),
        std::move(bump));
    // Only straight-line code was added: the CFG edges stand.
    return static_cast<int>(g.refs.size());
}

} // anonymous namespace

int
runStrengthReduce(rtl::Function &fn, const rtl::MachineTraits &traits)
{
    int total = 0;
    // reduceLoop rewrites one group per call, so revisit the loop
    // until no group is left.
    cfg::forEachLoop(fn, traits, true, [&](cfg::Loop &loop,
                                           const cfg::DominatorTree &dt,
                                           const cfg::DefUseTable &du) {
        int changed = reduceLoop(fn, loop, dt, du, traits);
        total += changed;
        return changed ? cfg::LoopVisit::Again : cfg::LoopVisit::Unchanged;
    });
    return total;
}

} // namespace wmstream::opt
