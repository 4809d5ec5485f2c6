#include "wm/lowering.h"

#include <optional>

#include "cfg/liveness.h"
#include "support/diag.h"

namespace wmstream::wm {

using cfg::RegKey;
using rtl::DataType;
using rtl::Expr;
using rtl::ExprPtr;
using rtl::Inst;
using rtl::InstKind;
using rtl::RegFile;

namespace {

/** Basic lowering: split every Load/Store into FIFO form. */
void
basicLower(rtl::Function &fn, LoweringReport &report)
{
    for (auto &bp : fn.blocks()) {
        rtl::Block *b = bp.get();
        for (size_t i = 0; i < b->insts.size(); ++i) {
            Inst &inst = b->insts[i];
            if (inst.kind == InstKind::Load) {
                bool flt = rtl::isFloatType(inst.memType);
                RegFile ff = flt ? RegFile::Flt : RegFile::Int;
                DataType fdt = flt ? DataType::F64 : DataType::I64;
                if (inst.dst->isReg(ff, 0))
                    continue; // already lowered
                WS_ASSERT(!rtl::isVirtualFile(inst.dst->regFile()),
                          "virtual register survived to lowering");
                ExprPtr dst = inst.dst;
                inst.dst = rtl::makeReg(ff, 0, fdt);
                Inst deq = rtl::makeAssign(
                    dst, rtl::makeReg(ff, 0, fdt),
                    inst.comment.empty() ? "dequeue" : "dequeue " +
                                                           inst.comment);
                b->insts.insert(b->insts.begin() +
                                static_cast<ptrdiff_t>(i + 1),
                                std::move(deq));
                ++i;
                ++report.loadsLowered;
            } else if (inst.kind == InstKind::Store) {
                bool flt = rtl::isFloatType(inst.memType);
                RegFile ff = flt ? RegFile::Flt : RegFile::Int;
                DataType fdt = flt ? DataType::F64 : DataType::I64;
                if (inst.src->isReg(ff, 0))
                    continue; // already lowered
                WS_ASSERT(!rtl::isVirtualFile(inst.src->regFile()),
                          "virtual register survived to lowering");
                Inst enq = rtl::makeAssign(rtl::makeReg(ff, 0, fdt),
                                           inst.src, "enqueue store data");
                inst.src = rtl::makeReg(ff, 0, fdt);
                b->insts.insert(b->insts.begin() +
                                static_cast<ptrdiff_t>(i),
                                std::move(enq));
                ++i;
                ++report.storesLowered;
            }
        }
    }
}

/**
 * Dequeue folding. For `rD := fifo` at @p i of @p b whose single later
 * use can consume the FIFO directly, delete the dequeue and return
 * true. Constraints documented in the header. Sets @p crossesWrite when
 * the moved queue read passes an instruction that writes the same
 * register number (an enqueue on the output FIFO of that name).
 */
bool
tryFoldDequeue(rtl::Block *b, size_t i, const cfg::Liveness &live,
               const rtl::MachineTraits &traits, bool *crossesWrite)
{
    Inst &deq = b->insts[i];
    if (deq.kind != InstKind::Assign || !deq.src->isReg())
        return false;
    RegFile ff = deq.src->regFile();
    int fifo = deq.src->regIndex();
    if ((ff != RegFile::Int && ff != RegFile::Flt) ||
            (fifo != 0 && fifo != 1)) {
        return false;
    }
    const ExprPtr dst = deq.dst;
    if (dst->isReg(ff, fifo))
        return false;
    RegKey dkey{dst->regFile(), dst->regIndex()};
    RegKey qkey{ff, fifo};

    // Find the single use, aborting on queue interference.
    size_t useIdx = 0;
    bool crosses = false;
    for (size_t j = i + 1;; ++j) {
        if (j == b->insts.size())
            return false;
        const Inst &cand = b->insts[j];
        if (cand.kind == InstKind::Call)
            return false;
        int usesD = 0;
        bool readsQ = false;
        rtl::forEachUseReg(cand, [&](const Expr &u) {
            usesD += u.isReg(dkey.file, dkey.index);
            readsQ = readsQ || u.isReg(ff, fifo);
        });
        if (usesD > 0) {
            if (usesD > 1)
                return false;
            useIdx = j;
            break;
        }
        if (readsQ)
            return false;
        // Redefinition of rD before any use: dequeue needed only if rD
        // live elsewhere; stop either way.
        bool redef = false;
        cfg::forEachDef(cand, traits, [&](const RegKey &k) {
            redef = redef || k == dkey;
            crosses = crosses || k == qkey;
        });
        if (redef)
            return false;
    }

    // Only fold into Assign sources and Load/Store addresses keep
    // ordering analysis simple; stores' data field is handled by the
    // enqueue peephole.
    Inst &use = b->insts[useIdx];
    if (use.kind != InstKind::Assign ||
            !rtl::usesReg(use.src, dkey.file, dkey.index)) {
        return false;
    }
    ExprPtr *field = &use.src;

    // rD must be dead after the use.
    if (live.liveAfter(b, useIdx, dkey))
        return false;

    // Queue order: the folded read takes the oldest element of its
    // queue, so no other read of that queue may share the use (one
    // evaluated before it would take that element instead).
    if (rtl::usesReg(*field, ff, fifo))
        return false;

    *field = rtl::substReg(*field, dkey.file, dkey.index, deq.src);
    b->insts.erase(b->insts.begin() + static_cast<ptrdiff_t>(i));
    *crossesWrite = crosses;
    return true;
}

/**
 * Fold every foldable dequeue, with one liveness solve for the whole
 * sweep. A fold deletes `rD := fifo`, rewrites rD's single use later
 * in the same block, and rD is dead after that use, so the live-in and
 * live-out sets of every block stay what a fresh solve would give: the
 * solve is reused, and the scan resumes at the start of the edited
 * block (earlier blocks, and their liveness, are unchanged). The one
 * exception is a queue read moved past a write of the same register
 * number, which can change that FIFO key's upward-exposed uses; then
 * the solve is rebuilt and the scan restarts from the entry. DESIGN.md
 * ("Def/use visitors and dense keys") gives the argument in full.
 */
void
foldDequeues(rtl::Function &fn, const rtl::MachineTraits &traits,
             LoweringReport &report)
{
    std::optional<cfg::Liveness> live(std::in_place, fn, traits);
    size_t bi = 0;
    while (bi < fn.blocks().size()) {
        rtl::Block *b = fn.blocks()[bi].get();
        bool folded = false;
        for (size_t i = 0; i < b->insts.size() && !folded; ++i) {
            bool crossesWrite = false;
            if (!tryFoldDequeue(b, i, *live, traits, &crossesWrite))
                continue;
            folded = true;
            ++report.dequeuesFolded;
            if (crossesWrite) {
                live.emplace(fn, traits);
                bi = 0;
            }
        }
        if (!folded)
            ++bi;
    }
}

/**
 * Enqueue folding: `rT := expr; fifoOut := rT` at @p i - 1 and @p i of
 * @p b, with rT dead afterwards, becomes `fifoOut := expr`.
 */
bool
tryFoldEnqueue(rtl::Block *b, size_t i, const cfg::Liveness &live)
{
    Inst &enq = b->insts[i];
    if (enq.kind != InstKind::Assign || !enq.dst->isReg())
        return false;
    RegFile ff = enq.dst->regFile();
    int fifo = enq.dst->regIndex();
    if ((ff != RegFile::Int && ff != RegFile::Flt) ||
            (fifo != 0 && fifo != 1)) {
        return false;
    }
    if (!enq.src->isReg())
        return false;
    Inst &def = b->insts[i - 1];
    if (def.kind != InstKind::Assign || !def.dst->isReg())
        return false;
    if (!def.dst->isReg(enq.src->regFile(), enq.src->regIndex()))
        return false;
    if (def.dst->isReg(ff, fifo))
        return false;
    RegKey dkey{def.dst->regFile(), def.dst->regIndex()};
    if (live.liveAfter(b, i, dkey))
        return false;
    // Merge: fifoOut := def.src; delete def.
    enq.src = def.src;
    if (enq.comment.empty())
        enq.comment = def.comment;
    b->insts.erase(b->insts.begin() + static_cast<ptrdiff_t>(i - 1));
    return true;
}

/**
 * Fold every foldable enqueue with one liveness solve. The merged
 * instruction reads what the deleted one read, at the same place
 * relative to every other instruction, so no key's liveness changes
 * and the solve is never rebuilt; a fold rescans its own block, where
 * the merged instruction may feed a new pair.
 */
void
foldEnqueues(rtl::Function &fn, const rtl::MachineTraits &traits,
             LoweringReport &report)
{
    cfg::Liveness live(fn, traits);
    for (auto &bp : fn.blocks()) {
        rtl::Block *b = bp.get();
        for (size_t i = 1; i < b->insts.size(); ++i) {
            if (tryFoldEnqueue(b, i, live)) {
                ++report.enqueuesFolded;
                i = 0;
            }
        }
    }
}

} // anonymous namespace

LoweringReport
lowerToFifoForm(rtl::Function &fn, const rtl::MachineTraits &traits)
{
    LoweringReport report;
    basicLower(fn, report);
    foldDequeues(fn, traits, report);
    foldEnqueues(fn, traits, report);
    fn.recomputeCfg();
    return report;
}

LoweringReport
lowerProgram(rtl::Program &prog, const rtl::MachineTraits &traits)
{
    LoweringReport total;
    for (auto &f : prog.functions()) {
        LoweringReport r = lowerToFifoForm(*f, traits);
        total.loadsLowered += r.loadsLowered;
        total.storesLowered += r.storesLowered;
        total.dequeuesFolded += r.dequeuesFolded;
        total.enqueuesFolded += r.enqueuesFolded;
    }
    return total;
}

} // namespace wmstream::wm
