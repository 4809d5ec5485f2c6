#include "opt/indvars.h"

#include <sstream>

#include "support/diag.h"

namespace wmstream::opt {

using cfg::RegKey;
using rtl::Expr;
using rtl::ExprPtr;
using rtl::Inst;
using rtl::InstKind;
using rtl::Op;
using rtl::RegFile;

std::string
LinForm::deeStr() const
{
    std::ostringstream os;
    switch (baseKind) {
      case Base::None: os << offset; return os.str();
      case Base::Sym: os << "_" << sym; break;
      case Base::Reg:
        os << rtl::regFilePrefix(baseReg->regFile()) << baseReg->regIndex();
        break;
      case Base::Unknown: os << "?"; break;
    }
    if (offset > 0)
        os << "+" << offset;
    else if (offset < 0)
        os << offset;
    return os.str();
}

IndVarAnalysis::IndVarAnalysis(rtl::Function &fn, cfg::Loop &loop,
                               const cfg::DominatorTree &dt,
                               const cfg::DefUseTable &defUse,
                               const rtl::MachineTraits &traits)
    : fn_(fn), loop_(loop), dt_(dt), defUse_(defUse), traits_(traits)
{
    collectLoopDefs();
    findBasicIVs();
}

void
IndVarAnalysis::collectLoopDefs()
{
    // Walk the block list rather than the loop's set: only the
    // instructions of the loop's blocks are read, in layout order.
    for (auto &bp : fn_.blocks()) {
        rtl::Block *b = bp.get();
        if (!loop_.contains(b))
            continue;
        for (size_t i = 0; i < b->insts.size(); ++i) {
            cfg::forEachDef(b->insts[i], traits_, [&](const RegKey &k) {
                auto &ld = loopDefs_[k];
                ld.block = b;
                ld.index = i;
                ++ld.count;
            });
        }
    }
}

void
IndVarAnalysis::findBasicIVs()
{
    for (const auto &[key, site] : loopDefs_) {
        if (site.count != 1)
            continue;
        if (key.file != RegFile::Int && key.file != RegFile::VInt)
            continue;
        const Inst &inst = site.block->insts[site.index];
        if (inst.kind != InstKind::Assign)
            continue;
        const ExprPtr &src = inst.src;
        if (!src || src->kind() != Expr::Kind::Bin)
            continue;
        if (!src->lhs()->isReg(key.file, key.index) ||
                !src->rhs()->isConst()) {
            continue;
        }
        int64_t step;
        if (src->op() == Op::Add)
            step = src->rhs()->ival();
        else if (src->op() == Op::Sub)
            step = -src->rhs()->ival();
        else
            continue;
        if (step == 0)
            continue;
        // Must execute exactly once per iteration.
        if (!cfg::executesEveryIteration(loop_, dt_, site.block))
            continue;
        BasicIV iv;
        iv.reg = inst.dst;
        iv.step = step;
        iv.defBlock = site.block;
        iv.defIndex = site.index;
        ivs_.push_back(std::move(iv));
    }
}

const BasicIV *
IndVarAnalysis::findIV(const ExprPtr &r) const
{
    for (const auto &iv : ivs_)
        if (iv.reg->regFile() == r->regFile() &&
                iv.reg->regIndex() == r->regIndex()) {
            return &iv;
        }
    return nullptr;
}

bool
IndVarAnalysis::regInvariant(RegFile file, int index) const
{
    if ((file == RegFile::Int || file == RegFile::Flt) &&
            index == traits_.zeroReg) {
        return true;
    }
    auto it = loopDefs_.find(RegKey{file, index});
    return it == loopDefs_.end() || it->second.count == 0;
}

bool
IndVarAnalysis::isInvariant(const ExprPtr &e) const
{
    bool inv = true;
    rtl::forEachNode(e, [&](const Expr &n) {
        if (n.kind() == Expr::Kind::Reg &&
                !regInvariant(n.regFile(), n.regIndex())) {
            inv = false;
        }
    });
    return inv;
}

bool
IndVarAnalysis::incrementedBefore(const BasicIV &iv, InstPoint at) const
{
    if (at.block == iv.defBlock)
        return iv.defIndex < at.index;
    // Cross-block: the increment precedes the use within an iteration
    // iff the increment's block dominates the use's block.
    return dt_.dominates(iv.defBlock, at.block);
}

LinForm
IndVarAnalysis::addForms(const LinForm &a, const LinForm &b, int sign)
{
    LinForm r;
    if (!a.valid || !b.valid)
        return r;
    r.valid = true;
    r.coeff = a.coeff + sign * b.coeff;
    r.offset = a.offset + sign * b.offset;

    if (a.baseKind == LinForm::Base::Unknown ||
            b.baseKind == LinForm::Base::Unknown) {
        r.baseKind = LinForm::Base::Unknown;
        return r;
    }
    if (b.baseKind == LinForm::Base::None) {
        r.baseKind = a.baseKind;
        r.sym = a.sym;
        r.baseReg = a.baseReg;
        return r;
    }
    if (a.baseKind == LinForm::Base::None) {
        if (sign < 0) {
            // Negative base (c - _sym): give up on identity.
            r.baseKind = LinForm::Base::Unknown;
            return r;
        }
        r.baseKind = b.baseKind;
        r.sym = b.sym;
        r.baseReg = b.baseReg;
        return r;
    }
    // Two bases: they cancel under subtraction of the same identity.
    bool same =
        a.baseKind == b.baseKind &&
        (a.baseKind == LinForm::Base::Sym
             ? a.sym == b.sym
             : (a.baseReg->regFile() == b.baseReg->regFile() &&
                a.baseReg->regIndex() == b.baseReg->regIndex()));
    if (sign < 0 && same) {
        r.baseKind = LinForm::Base::None;
        return r;
    }
    r.baseKind = LinForm::Base::Unknown;
    return r;
}

LinForm
IndVarAnalysis::scaleForm(const LinForm &a, int64_t factor)
{
    LinForm r;
    if (!a.valid)
        return r;
    if (a.baseKind == LinForm::Base::Sym ||
            a.baseKind == LinForm::Base::Reg) {
        if (factor == 1)
            return a;
        r.valid = true;
        r.baseKind = LinForm::Base::Unknown;
        return r;
    }
    r = a;
    r.coeff *= factor;
    r.offset *= factor;
    return r;
}

LinForm
IndVarAnalysis::resolveInvariantReg(const ExprPtr &reg) const
{
    LinForm r;
    r.valid = true;
    ExprPtr cur = reg;
    int64_t extra = 0;
    for (int depth = 0; depth < 16; ++depth) {
        cfg::Site where = defUse_.uniqueDef({cur->regFile(), cur->regIndex()});
        const Inst *def =
            where.block ? &where.block->insts[where.index] : nullptr;
        if (!def || def->kind != InstKind::Assign ||
                !dt_.dominates(where.block, loop_.header) ||
                loop_.contains(where.block)) {
            r.baseKind = LinForm::Base::Reg;
            r.baseReg = cur;
            r.offset = extra;
            return r;
        }
        const ExprPtr &src = def->src;
        if (src->isSym()) {
            r.baseKind = LinForm::Base::Sym;
            r.sym = src->symbol();
            r.offset = extra + src->symOffset();
            return r;
        }
        if (src->isConst() && !rtl::isFloatType(src->type())) {
            r.baseKind = LinForm::Base::None;
            r.offset = extra + src->ival();
            return r;
        }
        if (src->isReg()) {
            cur = src;
            continue;
        }
        if (src->kind() == Expr::Kind::Bin &&
                (src->op() == Op::Add || src->op() == Op::Sub)) {
            // reg := other +/- const, or reg := sym + const forms.
            if (src->lhs()->isReg() && src->rhs()->isConst()) {
                extra += src->op() == Op::Add ? src->rhs()->ival()
                                              : -src->rhs()->ival();
                cur = src->lhs();
                continue;
            }
            if (src->lhs()->isSym() && src->rhs()->isConst() &&
                    src->op() == Op::Add) {
                r.baseKind = LinForm::Base::Sym;
                r.sym = src->lhs()->symbol();
                r.offset = extra + src->lhs()->symOffset() +
                           src->rhs()->ival();
                return r;
            }
        }
        r.baseKind = LinForm::Base::Reg;
        r.baseReg = cur;
        r.offset = extra;
        return r;
    }
    r.baseKind = LinForm::Base::Reg;
    r.baseReg = cur;
    r.offset = extra;
    return r;
}

LinForm
IndVarAnalysis::linearize(const ExprPtr &e, const BasicIV &iv,
                          InstPoint at) const
{
    LinForm invalid;
    switch (e->kind()) {
      case Expr::Kind::Const: {
        if (rtl::isFloatType(e->type()))
            return invalid;
        LinForm r;
        r.valid = true;
        r.offset = e->ival();
        return r;
      }
      case Expr::Kind::Sym: {
        LinForm r;
        r.valid = true;
        r.baseKind = LinForm::Base::Sym;
        r.sym = e->symbol();
        r.offset = e->symOffset();
        return r;
      }
      case Expr::Kind::Reg: {
        if (e->regFile() == iv.reg->regFile() &&
                e->regIndex() == iv.reg->regIndex()) {
            LinForm r;
            r.valid = true;
            r.coeff = 1;
            if (incrementedBefore(iv, at))
                r.offset = iv.step;
            return r;
        }
        if ((e->regFile() == RegFile::Int ||
             e->regFile() == RegFile::Flt) &&
                e->regIndex() == traits_.zeroReg) {
            LinForm r;
            r.valid = true;
            return r;
        }
        if (regInvariant(e->regFile(), e->regIndex()))
            return resolveInvariantReg(e);

        // Defined inside the loop: chase a unique in-loop definition.
        cfg::Site site = defUse_.uniqueDef({e->regFile(), e->regIndex()});
        if (!site.block)
            return invalid;
        InstPoint where{site.block, site.index};
        const Inst &def = where.block->insts[where.index];
        if (def.kind != InstKind::Assign)
            return invalid;
        bool reaches =
            (where.block == at.block && where.index < at.index) ||
            (where.block != at.block &&
             dt_.dominates(where.block, at.block));
        if (!reaches)
            return invalid;
        // Evaluate the definition at its own point (any increment
        // between def and use is accounted for by the def-point
        // adjustment being smaller).
        return linearize(def.src, iv, where);
      }
      case Expr::Kind::Bin: {
        switch (e->op()) {
          case Op::Add:
            return addForms(linearize(e->lhs(), iv, at),
                            linearize(e->rhs(), iv, at), +1);
          case Op::Sub:
            return addForms(linearize(e->lhs(), iv, at),
                            linearize(e->rhs(), iv, at), -1);
          case Op::Mul: {
            if (e->rhs()->isConst())
                return scaleForm(linearize(e->lhs(), iv, at),
                                 e->rhs()->ival());
            if (e->lhs()->isConst())
                return scaleForm(linearize(e->rhs(), iv, at),
                                 e->lhs()->ival());
            return invalid;
          }
          case Op::Shl: {
            if (e->rhs()->isConst() && e->rhs()->ival() >= 0 &&
                    e->rhs()->ival() < 32) {
                return scaleForm(linearize(e->lhs(), iv, at),
                                 int64_t{1} << e->rhs()->ival());
            }
            return invalid;
          }
          default:
            return invalid;
        }
      }
      default:
        return invalid;
    }
}

} // namespace wmstream::opt
