#include <map>
#include <tuple>

#include "cfg/loops.h"
#include "opt/indvars.h"
#include "opt/passes.h"
#include "support/diag.h"

namespace wmstream::opt {

using rtl::DataType;
using rtl::ExprPtr;
using rtl::Inst;
using rtl::InstKind;
using rtl::Op;

namespace {

struct RefInfo
{
    rtl::Block *block;
    size_t index;
    LinForm lin;
    int64_t adjOffset; ///< offset relative to the pointer register
};

/** Identity of a strength-reduction group. */
using GroupKey = std::tuple<int /*iv#*/, int64_t /*coeff*/,
                            int /*baseKind*/, std::string /*base id*/>;

std::string
baseIdOf(const LinForm &l)
{
    switch (l.baseKind) {
      case LinForm::Base::Sym:
        return "S:" + l.sym;
      case LinForm::Base::Reg:
        return std::string("R:") + rtl::regFilePrefix(l.baseReg->regFile()) +
               std::to_string(l.baseReg->regIndex());
      case LinForm::Base::None:
        return "N";
      default:
        return "?";
    }
}

int
reduceLoop(rtl::Function &fn, cfg::Loop &loop,
           const cfg::DominatorTree &dt, const rtl::MachineTraits &traits)
{
    IndVarAnalysis ivs(fn, loop, dt, traits);
    if (ivs.basicIVs().empty())
        return 0;

    std::map<GroupKey, std::vector<RefInfo>> groups;
    std::map<GroupKey, const BasicIV *> groupIV;

    for (rtl::Block *b : loop.blocks) {
        for (size_t i = 0; i < b->insts.size(); ++i) {
            Inst &inst = b->insts[i];
            if (inst.kind != InstKind::Load &&
                    inst.kind != InstKind::Store) {
                continue;
            }
            // An address that is already a plain register or
            // register+constant (a walking pointer) is already in
            // reduced form.
            if (inst.addr->isReg())
                continue;
            if (inst.addr->kind() == rtl::Expr::Kind::Bin &&
                    inst.addr->op() == Op::Add &&
                    inst.addr->lhs()->isReg() &&
                    inst.addr->rhs()->isConst()) {
                continue;
            }
            for (size_t v = 0; v < ivs.basicIVs().size(); ++v) {
                const BasicIV &iv = ivs.basicIVs()[v];
                LinForm lin = ivs.linearize(inst.addr, iv,
                                            {b, i});
                if (!lin.valid || lin.coeff == 0 ||
                        lin.baseKind == LinForm::Base::Unknown) {
                    continue;
                }
                RefInfo ref{b, i, lin, 0};
                bool incBefore = false;
                if (b == iv.defBlock)
                    incBefore = iv.defIndex < i;
                else
                    incBefore = dt.dominates(iv.defBlock, b);
                ref.adjOffset =
                    lin.offset - (incBefore ? lin.coeff * iv.step : 0);
                GroupKey key{static_cast<int>(v), lin.coeff,
                             static_cast<int>(lin.baseKind), baseIdOf(lin)};
                groups[key].push_back(ref);
                groupIV[key] = &iv;
                break;
            }
        }
    }

    // Process one group per invocation: preheader creation and bump
    // insertion invalidate the collected indexes, so the loop sweep
    // revisits the loop for the next group.
    int rewritten = 0;
    if (!groups.empty()) {
        const auto &key = groups.begin()->first;
        auto &refs = groups.begin()->second;
        const BasicIV *iv = groupIV[key];
        const LinForm &proto = refs[0].lin;
        int64_t coeff = proto.coeff;

        int64_t minAdj = refs[0].adjOffset;
        for (const RefInfo &r : refs)
            minAdj = std::min(minAdj, r.adjOffset);

        rtl::Block *pre = cfg::ensurePreheader(fn, loop);
        size_t at = pre->insts.size();
        if (pre->terminator())
            --at;
        auto insertPre = [&](Inst inst) {
            pre->insts.insert(pre->insts.begin() +
                              static_cast<ptrdiff_t>(at++),
                              std::move(inst));
        };

        // p := coeff*iv + base + minAdj, evaluated in the preheader
        // where the IV still holds its initial value.
        ExprPtr p = fn.newVReg(DataType::I64);
        ExprPtr scaled = iv->reg;
        if (coeff != 1) {
            int sh = -1;
            for (int k = 1; k < 32; ++k)
                if (coeff == (int64_t{1} << k))
                    sh = k;
            ExprPtr t = fn.newVReg(DataType::I64);
            insertPre(rtl::makeAssign(
                t, sh > 0 ? rtl::makeBin(Op::Shl, iv->reg,
                                         rtl::makeConst(sh))
                          : rtl::makeBin(Op::Mul, iv->reg,
                                         rtl::makeConst(coeff)),
                "strength-reduce scale"));
            scaled = t;
        }
        ExprPtr base;
        switch (proto.baseKind) {
          case LinForm::Base::Sym: {
            ExprPtr bt = fn.newVReg(DataType::I64);
            insertPre(rtl::makeAssign(bt, rtl::makeSym(proto.sym),
                                      "strength-reduce base"));
            base = bt;
            break;
          }
          case LinForm::Base::Reg:
            base = proto.baseReg;
            break;
          default:
            base = nullptr;
            break;
        }
        ExprPtr init = scaled;
        if (base) {
            ExprPtr t = fn.newVReg(DataType::I64);
            insertPre(rtl::makeAssign(t, rtl::makeBin(Op::Add, scaled,
                                                      base)));
            init = t;
        }
        // p := coeff*iv + base + minAdj (minAdj already folds in any
        // symbol offset through LinForm::offset).
        insertPre(rtl::makeAssign(
            p, rtl::makeBin(Op::Add, init, rtl::makeConst(minAdj)),
            "strength-reduce pointer"));

        // Rewrite references: addr = p + (adj - minAdj).
        for (const RefInfo &r : refs) {
            Inst &inst = r.block->insts[r.index];
            inst.addr = rtl::makeBin(Op::Add, p,
                                     rtl::makeConst(r.adjOffset - minAdj));
            ++rewritten;
        }

        // Advance the pointer right after the IV increment.
        Inst bump = rtl::makeAssign(
            p, rtl::makeBin(Op::Add, p, rtl::makeConst(coeff * iv->step)),
            "strength-reduce bump");
        iv->defBlock->insts.insert(
            iv->defBlock->insts.begin() +
                static_cast<ptrdiff_t>(iv->defIndex + 1),
            std::move(bump));
    }

    fn.recomputeCfg();
    return rewritten;
}

} // anonymous namespace

int
runStrengthReduce(rtl::Function &fn, const rtl::MachineTraits &traits)
{
    int total = 0;
    // reduceLoop rewrites one group per call, so revisit the loop
    // until no group is left.
    cfg::forEachLoop(fn, true, [&](cfg::Loop &loop,
                                   const cfg::DominatorTree &dt) {
        int changed = reduceLoop(fn, loop, dt, traits);
        total += changed;
        return changed != 0;
    });
    return total;
}

} // namespace wmstream::opt
