#include "rtl/expr.h"

#include <sstream>

#include "rtl/exec.h"
#include "support/diag.h"

namespace wmstream::rtl {

int
dataTypeSize(DataType t)
{
    switch (t) {
      case DataType::I8: return 1;
      case DataType::I16: return 2;
      case DataType::I32: return 4;
      case DataType::I64: return 8;
      case DataType::F32: return 4;
      case DataType::F64: return 8;
    }
    return 4;
}

bool
isFloatType(DataType t)
{
    return t == DataType::F32 || t == DataType::F64;
}

const char *
dataTypeName(DataType t)
{
    switch (t) {
      case DataType::I8: return "i8";
      case DataType::I16: return "i16";
      case DataType::I32: return "i32";
      case DataType::I64: return "i64";
      case DataType::F32: return "f32";
      case DataType::F64: return "f64";
    }
    return "?";
}

bool
isVirtualFile(RegFile f)
{
    return f == RegFile::VInt || f == RegFile::VFlt;
}

const char *
regFilePrefix(RegFile f)
{
    switch (f) {
      case RegFile::Int: return "r";
      case RegFile::Flt: return "f";
      case RegFile::VInt: return "vr";
      case RegFile::VFlt: return "vf";
      case RegFile::CC: return "cc";
    }
    return "?";
}

bool
isRelationalOp(Op op)
{
    switch (op) {
      case Op::Eq: case Op::Ne: case Op::Lt:
      case Op::Le: case Op::Gt: case Op::Ge:
        return true;
      default:
        return false;
    }
}

const char *
opName(Op op)
{
    switch (op) {
      case Op::Add: return "+";
      case Op::Sub: return "-";
      case Op::Mul: return "*";
      case Op::Div: return "/";
      case Op::Rem: return "%";
      case Op::And: return "&";
      case Op::Or: return "|";
      case Op::Xor: return "^";
      case Op::Shl: return "<<";
      case Op::Shr: return ">>u";
      case Op::Sar: return ">>";
      case Op::Eq: return "==";
      case Op::Ne: return "!=";
      case Op::Lt: return "<";
      case Op::Le: return "<=";
      case Op::Gt: return ">";
      case Op::Ge: return ">=";
      case Op::Neg: return "-";
      case Op::Not: return "~";
      case Op::CvtIF: return "itof";
      case Op::CvtFI: return "ftoi";
      case Op::CvtWiden: return "widen";
    }
    return "?";
}

Op
swapRelational(Op op)
{
    switch (op) {
      case Op::Lt: return Op::Gt;
      case Op::Le: return Op::Ge;
      case Op::Gt: return Op::Lt;
      case Op::Ge: return Op::Le;
      default: return op; // Eq/Ne symmetric
    }
}

Op
negateRelational(Op op)
{
    switch (op) {
      case Op::Eq: return Op::Ne;
      case Op::Ne: return Op::Eq;
      case Op::Lt: return Op::Ge;
      case Op::Le: return Op::Gt;
      case Op::Gt: return Op::Le;
      case Op::Ge: return Op::Lt;
      default: WS_PANIC("negateRelational on non-relational op");
    }
}

bool
Expr::isIntConst(int64_t v) const
{
    return kind_ == Kind::Const && !isFloatType(type_) && ival_ == v;
}

bool
Expr::isReg(RegFile f, int idx) const
{
    return kind_ == Kind::Reg && file_ == f && static_cast<int>(ival_) == idx;
}

ExprPtr
makeConst(int64_t v, DataType t)
{
    auto e = std::make_shared<Expr>();
    e->kind_ = Expr::Kind::Const;
    e->type_ = t;
    e->ival_ = v;
    return e;
}

ExprPtr
makeFConst(double v, DataType t)
{
    auto e = std::make_shared<Expr>();
    e->kind_ = Expr::Kind::Const;
    e->type_ = t;
    e->fval_ = v;
    return e;
}

ExprPtr
makeSym(const std::string &name, int64_t offset)
{
    auto e = std::make_shared<Expr>();
    e->kind_ = Expr::Kind::Sym;
    e->type_ = DataType::I64;
    e->sym_ = name;
    e->ival_ = offset;
    return e;
}

ExprPtr
makeReg(RegFile file, int index, DataType t)
{
    auto e = std::make_shared<Expr>();
    e->kind_ = Expr::Kind::Reg;
    e->type_ = t;
    e->file_ = file;
    e->ival_ = index;
    return e;
}

ExprPtr
makeMem(ExprPtr addr, DataType t)
{
    WS_ASSERT(addr != nullptr, "Mem with null address");
    auto e = std::make_shared<Expr>();
    e->kind_ = Expr::Kind::Mem;
    e->type_ = t;
    e->lhs_ = std::move(addr);
    return e;
}

ExprPtr
makeBinRaw(Op op, ExprPtr l, ExprPtr r, DataType t)
{
    WS_ASSERT(l && r, "Bin with null operand");
    auto e = std::make_shared<Expr>();
    e->kind_ = Expr::Kind::Bin;
    e->type_ = t;
    e->op_ = op;
    e->lhs_ = std::move(l);
    e->rhs_ = std::move(r);
    return e;
}

ExprPtr
makeUnRaw(Op op, ExprPtr x, DataType t)
{
    WS_ASSERT(x != nullptr, "Un with null operand");
    auto e = std::make_shared<Expr>();
    e->kind_ = Expr::Kind::Un;
    e->type_ = t;
    e->op_ = op;
    e->lhs_ = std::move(x);
    return e;
}

namespace {

bool
isCommutative(Op op)
{
    switch (op) {
      case Op::Add: case Op::Mul: case Op::And:
      case Op::Or: case Op::Xor: case Op::Eq: case Op::Ne:
        return true;
      default:
        return false;
    }
}

DataType
binResultType(Op op, const ExprPtr &l, const ExprPtr &r)
{
    if (isRelationalOp(op))
        return DataType::I32;
    DataType lt = l->type(), rt = r->type();
    // Wider operand wins; float beats int.
    if (isFloatType(lt) || isFloatType(rt)) {
        if (lt == DataType::F64 || rt == DataType::F64)
            return DataType::F64;
        return isFloatType(lt) ? lt : rt;
    }
    return dataTypeSize(lt) >= dataTypeSize(rt) ? lt : rt;
}

} // anonymous namespace

ExprPtr
makeBin(Op op, ExprPtr l, ExprPtr r)
{
    DataType rt = binResultType(op, l, r);

    bool lfloat = isFloatType(l->type());
    // Constant folding, by the machines' own operator rules. An
    // operation that would trap at run time (a zero divisor) is left
    // for the machine to trap on.
    Val v;
    if (l->isConst() && r->isConst() && lfloat == isFloatType(r->type()) &&
            !(lfloat && isRelationalOp(op)) &&
            !applyBin(op, constVal(*l), constVal(*r), v))
        return lfloat ? makeFConst(v.f, rt) : makeConst(v.i, rt);

    // Sym +/- const folds into the symbol's offset.
    if (l->isSym() && r->isConst() && !isFloatType(r->type())) {
        if (op == Op::Add)
            return makeSym(l->symbol(), l->symOffset() + r->ival());
        if (op == Op::Sub)
            return makeSym(l->symbol(), l->symOffset() - r->ival());
    }
    if (l->isConst() && r->isSym() && op == Op::Add)
        return makeSym(r->symbol(), r->symOffset() + l->ival());

    // Canonicalize: constant operand of a commutative op to the right.
    if (isCommutative(op) && l->isConst() && !r->isConst())
        std::swap(l, r);
    // Likewise prefer the symbol on the right of an Add so address
    // expressions take the shape (f(iv)) + base.
    if (op == Op::Add && l->isSym() && !r->isConst() && !r->isSym())
        std::swap(l, r);

    // Identities.
    if (!lfloat) {
        if (op == Op::Add && r->isIntConst(0))
            return l;
        if (op == Op::Sub && r->isIntConst(0))
            return l;
        if (op == Op::Mul && r->isIntConst(1))
            return l;
        if (op == Op::Mul && r->isIntConst(0))
            return makeConst(0, rt);
        if ((op == Op::Shl || op == Op::Shr || op == Op::Sar) &&
                r->isIntConst(0)) {
            return l;
        }
        if (op == Op::Div && r->isIntConst(1))
            return l;
        // (x + c1) + c2  ->  x + (c1 + c2); same for mixed add/sub chains.
        if ((op == Op::Add || op == Op::Sub) && r->isConst() &&
                l->kind() == Expr::Kind::Bin &&
                (l->op() == Op::Add || l->op() == Op::Sub) &&
                l->rhs()->isConst() && !isFloatType(l->rhs()->type())) {
            // Unsigned, so the sum wraps as the machines' Add does.
            auto c1 = static_cast<uint64_t>(l->rhs()->ival());
            auto c2 = static_cast<uint64_t>(r->ival());
            uint64_t c = (l->op() == Op::Add ? c1 : 0 - c1) +
                         (op == Op::Add ? c2 : 0 - c2);
            return makeBin(Op::Add, l->lhs(),
                           makeConst(static_cast<int64_t>(c), rt));
        }
    }

    return makeBinRaw(op, std::move(l), std::move(r), rt);
}

ExprPtr
makeUn(Op op, ExprPtr x, DataType result)
{
    // Fold by the machines' rules where the operand kind suits the
    // operator: Neg takes either, CvtFI a float, the rest an integer.
    bool flt = isFloatType(x->type());
    Val v;
    if (x->isConst() && (op == Op::Neg || flt == (op == Op::CvtFI)) &&
            !applyUn(op, constVal(*x), v))
        return v.isFloat ? makeFConst(v.f, result) : makeConst(v.i, result);
    return makeUnRaw(op, std::move(x), result);
}

bool
exprEqual(const ExprPtr &a, const ExprPtr &b)
{
    if (a == b)
        return true;
    if (!a || !b)
        return false;
    if (a->kind() != b->kind() || a->type() != b->type())
        return false;
    switch (a->kind()) {
      case Expr::Kind::Const:
        return isFloatType(a->type()) ? a->fval() == b->fval()
                                      : a->ival() == b->ival();
      case Expr::Kind::Sym:
        return a->symbol() == b->symbol() && a->symOffset() == b->symOffset();
      case Expr::Kind::Reg:
        return a->regFile() == b->regFile() && a->regIndex() == b->regIndex();
      case Expr::Kind::Mem:
        return exprEqual(a->addr(), b->addr());
      case Expr::Kind::Bin:
        return a->op() == b->op() && exprEqual(a->lhs(), b->lhs()) &&
               exprEqual(a->rhs(), b->rhs());
      case Expr::Kind::Un:
        return a->op() == b->op() && exprEqual(a->lhs(), b->lhs());
    }
    return false;
}

ExprPtr
substReg(const ExprPtr &e, RegFile file, int index, const ExprPtr &repl)
{
    switch (e->kind()) {
      case Expr::Kind::Const:
      case Expr::Kind::Sym:
        return e;
      case Expr::Kind::Reg:
        return e->isReg(file, index) ? repl : e;
      case Expr::Kind::Mem: {
        ExprPtr a = substReg(e->addr(), file, index, repl);
        return a == e->addr() ? e : makeMem(a, e->type());
      }
      case Expr::Kind::Bin: {
        ExprPtr l = substReg(e->lhs(), file, index, repl);
        ExprPtr r = substReg(e->rhs(), file, index, repl);
        if (l == e->lhs() && r == e->rhs())
            return e;
        return makeBin(e->op(), l, r);
      }
      case Expr::Kind::Un: {
        ExprPtr x = substReg(e->lhs(), file, index, repl);
        return x == e->lhs() ? e : makeUn(e->op(), x, e->type());
      }
    }
    return e;
}

bool
usesReg(const ExprPtr &ep, RegFile file, int index)
{
    const Expr *e = ep.get();
    while (e) {
        switch (e->kind()) {
          case Expr::Kind::Reg:
            return e->isReg(file, index);
          case Expr::Kind::Mem:
          case Expr::Kind::Un:
            e = e->lhs().get();
            break;
          case Expr::Kind::Bin:
            if (usesReg(e->lhs(), file, index))
                return true;
            e = e->rhs().get();
            break;
          default:
            return false;
        }
    }
    return false;
}

bool
containsMem(const ExprPtr &e)
{
    bool found = false;
    forEachNode(e, [&](const Expr &n) {
        if (n.kind() == Expr::Kind::Mem)
            found = true;
    });
    return found;
}

bool
isDataFifoReg(const Expr &e)
{
    return e.kind() == Expr::Kind::Reg &&
           (e.regFile() == RegFile::Int || e.regFile() == RegFile::Flt) &&
           (e.regIndex() == 0 || e.regIndex() == 1);
}

bool
readsDataFifo(const ExprPtr &e)
{
    bool found = false;
    forEachNode(e, [&](const Expr &n) { found |= isDataFifoReg(n); });
    return found;
}

std::string
Expr::str() const
{
    std::ostringstream os;
    switch (kind_) {
      case Kind::Const:
        if (isFloatType(type_))
            os << fval_;
        else
            os << ival_;
        break;
      case Kind::Sym:
        os << "_" << sym_;
        if (ival_ > 0)
            os << "+" << ival_;
        else if (ival_ < 0)
            os << ival_;
        break;
      case Kind::Reg:
        os << regFilePrefix(file_) << "[" << ival_ << "]";
        break;
      case Kind::Mem:
        os << (isFloatType(type_) ? "F" : "M") << dataTypeSize(type_) * 8
           << "[" << lhs_->str() << "]";
        break;
      case Kind::Bin:
        os << "(" << lhs_->str() << opName(op_) << rhs_->str() << ")";
        break;
      case Kind::Un:
        if (op_ == Op::Neg || op_ == Op::Not)
            os << opName(op_) << "(" << lhs_->str() << ")";
        else
            os << opName(op_) << "(" << lhs_->str() << ")";
        break;
    }
    return os.str();
}

} // namespace wmstream::rtl
