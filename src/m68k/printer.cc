#include "m68k/printer.h"

#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "support/diag.h"
#include "support/str.h"

namespace wmstream::m68k {

using rtl::Expr;
using rtl::ExprPtr;
using rtl::Inst;
using rtl::InstKind;
using rtl::Op;
using rtl::RegFile;

namespace {

/** Register name assignment: address vs data vs float registers. */
class RegNames
{
  public:
    explicit RegNames(const rtl::Function &fn)
    {
        // Integer registers appearing inside load/store addresses get
        // address registers; everything else gets data registers.
        std::unordered_set<int> addrRegs;
        for (const auto &bp : fn.blocks()) {
            for (const Inst &inst : bp->insts) {
                if (inst.kind != InstKind::Load &&
                        inst.kind != InstKind::Store) {
                    continue;
                }
                rtl::forEachNode(inst.addr, [&](const Expr &n) {
                    if (n.kind() == Expr::Kind::Reg &&
                            n.regFile() == RegFile::Int) {
                        addrRegs.insert(n.regIndex());
                    }
                });
            }
        }
        int nextA = 0, nextD = 0, nextF = 0;
        for (const auto &bp : fn.blocks()) {
            for (const Inst &inst : bp->insts) {
                auto touch = [&](const ExprPtr &e) {
                    rtl::forEachNode(e, [&](const Expr &n) {
                        if (n.kind() != Expr::Kind::Reg)
                            return;
                        if (n.regFile() == RegFile::Int) {
                            int r = n.regIndex();
                            if (r == 31 || r == 30)
                                return; // zero / a7
                            if (intNames_.count(r))
                                return;
                            if (addrRegs.count(r) && nextA < 6)
                                intNames_[r] =
                                    strFormat("a%d", nextA++);
                            else
                                intNames_[r] = strFormat("d%d", nextD++);
                        } else if (n.regFile() == RegFile::Flt) {
                            int r = n.regIndex();
                            if (r == 31 || fltNames_.count(r))
                                return;
                            fltNames_[r] = strFormat("fp%d", nextF++);
                        }
                    });
                };
                touch(inst.dst);
                touch(inst.src);
                touch(inst.addr);
                touch(inst.count);
            }
        }
    }

    std::string
    intName(int r) const
    {
        if (r == 30)
            return "a7";
        if (r == 31)
            return "#0";
        auto it = intNames_.find(r);
        WS_ASSERT(it != intNames_.end(), "register missed by the name scan");
        return it->second;
    }

    std::string
    fltName(int r) const
    {
        if (r == 31)
            return "#0.0";
        auto it = fltNames_.find(r);
        WS_ASSERT(it != fltNames_.end(), "register missed by the name scan");
        return it->second;
    }

  private:
    std::unordered_map<int, std::string> intNames_;
    std::unordered_map<int, std::string> fltNames_;
};

std::string
regName(const RegNames &names, const ExprPtr &e)
{
    if (e->regFile() == RegFile::Flt || e->regFile() == RegFile::VFlt)
        return names.fltName(e->regIndex());
    return names.intName(e->regIndex());
}

/** Addressing mode string for a load/store address. */
std::string
addrMode(const RegNames &names, const ExprPtr &a)
{
    if (a->isSym()) {
        if (a->symOffset())
            return strFormat("(%lld + _%s)",
                             static_cast<long long>(a->symOffset()),
                             a->symbol().c_str());
        return "(_" + a->symbol() + ")";
    }
    if (a->isReg())
        return names.intName(a->regIndex()) + "@";
    if (a->kind() == Expr::Kind::Bin && a->op() == Op::Add) {
        const ExprPtr &l = a->lhs();
        const ExprPtr &r = a->rhs();
        if (l->isReg() && r->isConst())
            return strFormat("%s@(%lld)",
                             names.intName(l->regIndex()).c_str(),
                             static_cast<long long>(r->ival()));
        if (l->isConst() && r->isReg())
            return strFormat("%s@(%lld)",
                             names.intName(r->regIndex()).c_str(),
                             static_cast<long long>(l->ival()));
        if (l->isSym() && r->isConst())
            return strFormat("(%lld + _%s)",
                             static_cast<long long>(r->ival() +
                                                    l->symOffset()),
                             l->symbol().c_str());
        // Scaled index: (reg << k) + base
        if (l->kind() == Expr::Kind::Bin && l->op() == Op::Shl &&
                l->lhs()->isReg() && l->rhs()->isConst()) {
            int scale = 1 << l->rhs()->ival();
            std::string base = r->isSym() ? "_" + r->symbol()
                                          : names.intName(r->regIndex());
            return strFormat("%s@(0,%s:l:%d)", base.c_str(),
                             names.intName(l->lhs()->regIndex()).c_str(),
                             scale);
        }
        if (l->isReg() && r->isReg())
            return strFormat("%s@(0,%s:l)",
                             names.intName(l->regIndex()).c_str(),
                             names.intName(r->regIndex()).c_str());
        // ((index << k) + base) + displacement
        if (r->isConst() && l->kind() == Expr::Kind::Bin &&
                l->op() == Op::Add) {
            const ExprPtr &idx = l->lhs();
            const ExprPtr &base = l->rhs();
            if (idx->kind() == Expr::Kind::Bin && idx->op() == Op::Shl &&
                    idx->lhs()->isReg() && idx->rhs()->isConst()) {
                int scale = 1 << idx->rhs()->ival();
                std::string b =
                    base->isSym() ? "_" + base->symbol()
                                  : names.intName(base->regIndex());
                return strFormat("(%s%+lld,%s:l:%d)", b.c_str(),
                                 static_cast<long long>(r->ival()),
                                 names.intName(idx->lhs()->regIndex())
                                     .c_str(),
                                 scale);
            }
        }
    }
    std::string out = "<";
    out += a->str();
    out += '>';
    return out;
}

const char *
jccFor(Op rel, bool when)
{
    Op eff = when ? rel : rtl::negateRelational(rel);
    switch (eff) {
      case Op::Eq: return "jeq";
      case Op::Ne: return "jne";
      case Op::Lt: return "jlt";
      case Op::Le: return "jle";
      case Op::Gt: return "jgt";
      case Op::Ge: return "jge";
      default: return "jra";
    }
}

} // anonymous namespace

std::string
printFunction(const rtl::Function &fn)
{
    RegNames names(fn);
    std::ostringstream os;
    os << "| 68020 code for " << fn.name() << "\n";

    // Which pointer bumps are folded into auto-increment modes.
    // Pattern: Load/Store with address `p`, followed later in the same
    // block (with no other use of p between) by p := p + elemsize.
    std::unordered_set<const Inst *> folded;
    std::unordered_map<const Inst *, bool> autoInc;
    for (const auto &bp : fn.blocks()) {
        auto &insts = bp->insts;
        for (size_t i = 0; i < insts.size(); ++i) {
            const Inst &mem = insts[i];
            if (mem.kind != InstKind::Load && mem.kind != InstKind::Store)
                continue;
            if (!mem.addr->isReg())
                continue;
            int p = mem.addr->regIndex();
            int64_t esz = rtl::dataTypeSize(mem.memType);
            for (size_t j = i + 1; j < insts.size(); ++j) {
                const Inst &b = insts[j];
                bool usesP = false;
                rtl::forEachUseReg(b, [&](const Expr &u) {
                    usesP = usesP || u.isReg(RegFile::Int, p);
                });
                bool defsP = b.dst && b.dst->isReg(RegFile::Int, p);
                if (defsP && b.kind == InstKind::Assign &&
                        b.src->kind() == Expr::Kind::Bin &&
                        b.src->op() == Op::Add &&
                        b.src->lhs()->isReg(RegFile::Int, p) &&
                        b.src->rhs()->isIntConst(esz) &&
                        !folded.count(&b)) {
                    folded.insert(&b);
                    autoInc[&mem] = true;
                    break;
                }
                if (usesP || defsP)
                    break;
            }
        }
    }

    Op lastCmp = Op::Eq;
    for (const auto &bp : fn.blocks()) {
        os << bp->label() << ":\n";
        for (const Inst &inst : bp->insts) {
            if (folded.count(&inst))
                continue; // absorbed into an auto-increment mode
            std::ostringstream line;
            switch (inst.kind) {
              case InstKind::Assign: {
                if (inst.dst->regFile() == RegFile::CC) {
                    lastCmp = inst.src->op();
                    std::string a = inst.src->lhs()->isConst()
                                        ? strFormat("#%lld",
                                                    static_cast<long long>(
                                                        inst.src->lhs()
                                                            ->ival()))
                                        : regName(names, inst.src->lhs());
                    std::string b = inst.src->rhs()->isConst()
                                        ? strFormat("#%lld",
                                                    static_cast<long long>(
                                                        inst.src->rhs()
                                                            ->ival()))
                                        : regName(names, inst.src->rhs());
                    bool flt = inst.dst->regIndex() == 1;
                    // 68k compare computes dst - src: cmpl src,dst.
                    line << (flt ? "fcmpx " : "cmpl ") << b << "," << a;
                    break;
                }
                bool flt = inst.dst->regFile() == RegFile::Flt;
                std::string d = regName(names, inst.dst);
                const ExprPtr &s = inst.src;
                if (s->isConst() && !rtl::isFloatType(s->type())) {
                    if (s->ival() >= -128 && s->ival() <= 127)
                        line << "moveq #" << s->ival() << "," << d;
                    else
                        line << "movl #" << s->ival() << "," << d;
                } else if (s->isSym()) {
                    line << "lea (_" << s->symbol();
                    if (s->symOffset())
                        line << "+" << s->symOffset();
                    line << ")," << d;
                } else if (s->isReg()) {
                    line << (flt ? "fmovex " : "movl ")
                         << regName(names, s) << "," << d;
                } else if (s->kind() == Expr::Kind::Un) {
                    if (s->op() == Op::CvtIF)
                        line << "fmovel " << regName(names, s->lhs())
                             << "," << d;
                    else if (s->op() == Op::CvtFI)
                        line << "fmovel " << regName(names, s->lhs())
                             << "," << d;
                    else
                        line << "negl " << d;
                } else if (s->kind() == Expr::Kind::Bin) {
                    const char *mn = nullptr;
                    switch (s->op()) {
                      case Op::Add: mn = flt ? "faddx" : "addl"; break;
                      case Op::Sub: mn = flt ? "fsubx" : "subl"; break;
                      case Op::Mul: mn = flt ? "fmulx" : "mulsl"; break;
                      case Op::Div: mn = flt ? "fdivx" : "divsl"; break;
                      case Op::Rem: mn = "remsl"; break;
                      case Op::And: mn = "andl"; break;
                      case Op::Or: mn = "orl"; break;
                      case Op::Xor: mn = "eorl"; break;
                      case Op::Shl: mn = "lsll"; break;
                      case Op::Shr: mn = "lsrl"; break;
                      case Op::Sar: mn = "asrl"; break;
                      default: mn = "op?"; break;
                    }
                    auto opnd = [&](const ExprPtr &e) {
                        if (e->isConst())
                            return strFormat(
                                "#%lld",
                                static_cast<long long>(e->ival()));
                        return regName(names, e);
                    };
                    // Two-address form: dst must equal the first
                    // operand; emit a move when it does not. When dst
                    // is the second operand the move would clobber it:
                    // a commutative op takes the first operand as its
                    // source instead, and a - d becomes -d + a.
                    auto isD = [&](const ExprPtr &e) {
                        return e->isReg() && regName(names, e) == d;
                    };
                    bool dstIsLhs = isD(s->lhs());
                    bool dstIsRhs = !dstIsLhs && isD(s->rhs());
                    bool commutative =
                        s->op() == Op::Add || s->op() == Op::Mul ||
                        s->op() == Op::And || s->op() == Op::Or ||
                        s->op() == Op::Xor;
                    if (s->op() == Op::Add && s->rhs()->isConst() &&
                            dstIsLhs && s->rhs()->ival() >= 1 &&
                            s->rhs()->ival() <= 8) {
                        line << "addql #" << s->rhs()->ival() << "," << d;
                    } else if (dstIsRhs && commutative) {
                        line << mn << " " << opnd(s->lhs()) << "," << d;
                    } else if (dstIsRhs && s->op() == Op::Sub) {
                        line << (flt ? "fnegx " : "negl ") << d << "; "
                             << (flt ? "faddx " : "addl ")
                             << opnd(s->lhs()) << "," << d;
                    } else {
                        if (!dstIsLhs)
                            line << (flt ? "fmovex " : "movl ")
                                 << opnd(s->lhs()) << "," << d << "; ";
                        line << mn << " " << opnd(s->rhs()) << "," << d;
                    }
                } else {
                    line << "?" << s->str();
                }
                break;
              }
              case InstKind::Load: {
                bool flt = rtl::isFloatType(inst.memType);
                std::string mode = autoInc.count(&inst) && inst.addr->isReg()
                                       ? names.intName(
                                             inst.addr->regIndex()) + "@+"
                                       : addrMode(names, inst.addr);
                line << (flt ? "fmoved "
                             : (rtl::dataTypeSize(inst.memType) == 1
                                    ? "moveb "
                                    : "movl "))
                     << mode << "," << regName(names, inst.dst);
                break;
              }
              case InstKind::Store: {
                bool flt = rtl::isFloatType(inst.memType);
                std::string mode = autoInc.count(&inst) && inst.addr->isReg()
                                       ? names.intName(
                                             inst.addr->regIndex()) + "@+"
                                       : addrMode(names, inst.addr);
                line << (flt ? "fmoved "
                             : (rtl::dataTypeSize(inst.memType) == 1
                                    ? "moveb "
                                    : "movl "))
                     << regName(names, inst.src) << "," << mode;
                break;
              }
              case InstKind::Jump:
                line << "jra " << inst.target;
                break;
              case InstKind::CondJump:
                line << jccFor(lastCmp, inst.when) << " " << inst.target;
                break;
              case InstKind::Call:
                line << "jbsr _" << inst.target;
                break;
              case InstKind::Return:
                line << "rts";
                break;
              default:
                line << "| stream instruction (not a 68020 concept)";
                break;
            }
            os << strFormat("    %-32s", line.str().c_str());
            if (!inst.comment.empty())
                os << " | " << inst.comment;
            os << "\n";
        }
    }
    return os.str();
}

std::string
printProgram(const rtl::Program &prog)
{
    std::ostringstream os;
    for (const auto &f : prog.functions())
        os << printFunction(*f) << "\n";
    return os.str();
}

} // namespace wmstream::m68k
