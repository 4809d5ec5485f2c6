#include "cfg/regkey.h"
#include "opt/legal.h"
#include "opt/passes.h"
#include "support/diag.h"

namespace wmstream::opt {

using cfg::RegKey;
using rtl::Expr;
using rtl::ExprPtr;
using rtl::Inst;
using rtl::InstKind;
using rtl::RegFile;

namespace {

/**
 * Use and def counts of the virtual registers. Counted once per
 * runCombine call and kept equal to a full recount at every fold: the
 * fold subtracts the old use instruction and the deleted def, then adds
 * the rewritten use. Only the destination's use is known to go away;
 * folding can drop other registers too (`r2 := 0` into `r1*r2` leaves
 * `0`), so the whole instruction is recounted.
 */
struct UseDefCounts
{
    cfg::RegKeyTable<int> uses;
    cfg::RegKeyTable<int> defs;

    void add(const Inst &inst, const rtl::MachineTraits &traits, int delta)
    {
        cfg::forEachUse(inst, [&](const RegKey &k) {
            if (rtl::isVirtualFile(k.file))
                uses.at(k) += delta;
        });
        cfg::forEachDef(inst, traits, [&](const RegKey &k) {
            if (rtl::isVirtualFile(k.file))
                defs.at(k) += delta;
        });
    }
};

/** Try to fold the definition at @p defIdx into a later use in @p b. */
bool
tryCombineAt(rtl::Block *b, size_t defIdx, UseDefCounts &counts,
             const rtl::MachineTraits &traits)
{
    Inst &def = b->insts[defIdx];
    if (def.kind != InstKind::Assign)
        return false;
    const ExprPtr &dst = def.dst;
    if (!rtl::isVirtualFile(dst->regFile()))
        return false;
    RegKey dkey{dst->regFile(), dst->regIndex()};
    if (counts.defs.get(dkey) != 1 || counts.uses.get(dkey) != 1)
        return false;
    // A source that dequeues a data FIFO may only move to the
    // immediately following instruction, and only when that instruction
    // reads none of the same queues (so no per-queue read reorders).
    bool fifoSrc = rtl::readsDataFifo(def.src);

    // Registers the source depends on; the fold is blocked if any is
    // redefined between the definition and the use.
    auto srcReads = [&](const RegKey &k) {
        return rtl::usesReg(def.src, k.file, k.index);
    };

    for (size_t j = defIdx + 1; j < b->insts.size(); ++j) {
        Inst &use = b->insts[j];
        if (cfg::readsKey(use, dkey)) {
            if (fifoSrc) {
                if (j != defIdx + 1)
                    return false;
                // The use must not touch any queue the source reads.
                bool sharesQueue = false;
                rtl::forEachUseReg(use, [&](const Expr &r) {
                    if (rtl::isDataFifoReg(r) &&
                            srcReads({r.regFile(), r.regIndex()})) {
                        sharesQueue = true;
                    }
                });
                if (sharesQueue)
                    return false;
            }
            ExprPtr merged;
            ExprPtr *field = nullptr;
            switch (use.kind) {
              case InstKind::Assign: {
                merged = rtl::substReg(use.src, dkey.file, dkey.index,
                                       def.src);
                bool legal = use.dst->regFile() == RegFile::CC
                                 ? fitsCompareSrc(merged, traits)
                                 : fitsAssignSrc(merged, traits);
                if (!legal)
                    return false;
                field = &use.src;
                break;
              }
              case InstKind::Load:
              case InstKind::Store: {
                // Only address folds; store data must stay a register.
                if (use.kind == InstKind::Store &&
                        rtl::usesReg(use.src, dkey.file, dkey.index)) {
                    return false;
                }
                merged = rtl::substReg(use.addr, dkey.file, dkey.index,
                                       def.src);
                if (!fitsAddr(merged, traits))
                    return false;
                field = &use.addr;
                break;
              }
              default:
                return false;
            }
            counts.add(use, traits, -1);
            counts.add(def, traits, -1);
            *field = std::move(merged);
            counts.add(use, traits, +1);
            b->insts.erase(b->insts.begin() +
                           static_cast<ptrdiff_t>(defIdx));
            return true;
        }

        if (fifoSrc)
            return false; // FIFO reads cannot move past anything

        // Stop when an instruction between the def and the use
        // redefines an input of the source (or the destination).
        bool clobbers = false;
        cfg::forEachDef(use, traits, [&](const RegKey &k) {
            clobbers = clobbers || k == dkey || srcReads(k);
        });
        if (clobbers)
            return false;
    }
    return false;
}

} // anonymous namespace

int
runCombine(rtl::Function &fn, const rtl::MachineTraits &traits)
{
    UseDefCounts counts;
    for (auto &bp : fn.blocks())
        for (const Inst &inst : bp->insts)
            counts.add(inst, traits, +1);

    int total = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        for (auto &bp : fn.blocks()) {
            rtl::Block *b = bp.get();
            for (size_t i = 0; i < b->insts.size(); ++i) {
                if (tryCombineAt(b, i, counts, traits)) {
                    ++total;
                    changed = true;
                    if (i > 0)
                        --i;
                }
            }
        }
    }
    return total;
}

} // namespace wmstream::opt
