#include "cfg/liveness.h"
#include "opt/legal.h"
#include "opt/passes.h"

namespace wmstream::opt {

using cfg::RegKey;
using rtl::Expr;
using rtl::ExprPtr;
using rtl::Inst;
using rtl::InstKind;
using rtl::Op;
using rtl::RegFile;

int
runBranchAnticipate(rtl::Function &fn, const rtl::MachineTraits &traits)
{
    int changes = 0;
    for (auto &bp : fn.blocks()) {
        rtl::Block *b = bp.get();
        const Inst *term = b->terminator();
        if (!term || term->kind != InstKind::CondJump)
            continue;

        // Exactly one condition-code write in the block.
        size_t cmpIdx = b->insts.size();
        int ccWrites = 0;
        for (size_t i = 0; i < b->insts.size(); ++i) {
            const Inst &inst = b->insts[i];
            if (inst.kind == InstKind::Assign &&
                    inst.dst->regFile() == RegFile::CC) {
                ++ccWrites;
                cmpIdx = i;
            }
        }
        if (ccWrites != 1 || cmpIdx + 1 >= b->insts.size() + 1)
            continue;
        Inst cmp = b->insts[cmpIdx];
        if (rtl::readsDataFifo(cmp.src))
            continue; // dequeues cannot be reordered

        // Try to fuse a trailing induction-variable increment into the
        // compare: if the compare reads R whose only in-block def is
        // R := R +/- c (before the compare), substitute (R +/- c) and
        // require the compare to move above that increment. The fused
        // compare then reads the pre-increment value, which plus c is
        // exactly what the original compare saw.
        auto lastDefBefore = [&](const RegKey &key, size_t before) {
            size_t last = 0;
            for (size_t i = 0; i < before; ++i)
                if (cfg::writesKey(b->insts[i], traits, key))
                    last = i + 1;
            return last;
        };

        ExprPtr src = cmp.src;
        size_t positionCap = cmpIdx; // compare may sit at [earliest, cap]
        size_t earliest = 0;
        bool fusedAny = false;
        // Never move a pending condition code across a call: the
        // callee's own compare/branch pairs would dequeue it.
        for (size_t i = 0; i < cmpIdx; ++i)
            if (b->insts[i].kind == InstKind::Call)
                earliest = std::max(earliest, i + 1);
        rtl::forEachReg(cmp.src, [&](const Expr &r) {
            RegKey key{r.regFile(), r.regIndex()};
            int defs = 0;
            size_t defIdx = 0;
            for (size_t i = 0; i < cmpIdx; ++i) {
                cfg::forEachDef(b->insts[i], traits, [&](const RegKey &d) {
                    if (d == key) {
                        ++defs;
                        defIdx = i;
                    }
                });
            }
            if (defs == 0)
                return; // loop-carried or preheader value: free
            bool fused = false;
            if (defs == 1) {
                const Inst &def = b->insts[defIdx];
                if (def.kind == InstKind::Assign &&
                        def.src->kind() == Expr::Kind::Bin &&
                        (def.src->op() == Op::Add ||
                         def.src->op() == Op::Sub) &&
                        def.src->lhs()->isReg(key.file, key.index) &&
                        def.src->rhs()->isConst()) {
                    ExprPtr cand = rtl::substReg(src, key.file, key.index,
                                                 def.src);
                    if (fitsCompareSrc(cand, traits)) {
                        src = cand;
                        fused = true;
                        fusedAny = true;
                        // Must execute before the increment; its own
                        // pre-increment value has no earlier def.
                        positionCap = std::min(positionCap, defIdx);
                        earliest = std::max(earliest,
                                            lastDefBefore(key, defIdx));
                    }
                }
            }
            if (!fused)
                earliest = std::max(earliest,
                                    lastDefBefore(key, cmpIdx));
        });
        if (earliest > positionCap)
            continue; // conflicting constraints: leave it alone
        size_t target = earliest;
        if (target >= cmpIdx && !fusedAny)
            continue; // no improvement

        cmp.src = src;
        if (cmp.comment.empty())
            cmp.comment = "anticipated compare";
        b->insts.erase(b->insts.begin() + static_cast<ptrdiff_t>(cmpIdx));
        b->insts.insert(b->insts.begin() + static_cast<ptrdiff_t>(target),
                        std::move(cmp));
        ++changes;
    }
    return changes;
}

} // namespace wmstream::opt
