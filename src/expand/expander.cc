#include "expand/expander.h"

#include <cstring>
#include <unordered_map>

#include "interp/interp.h"
#include "support/convert.h"
#include "support/str.h"

namespace wmstream::expand {

using namespace frontend;
using rtl::DataType;
using rtl::ExprPtr;
using rtl::Inst;
using rtl::InstKind;
using rtl::Op;
using rtl::RegFile;
using rtl::UnitSide;
using rtl::isFloatType;
using rtl::makeConst;
using rtl::makeReg;
using rtl::makeSym;

namespace {

/** RTL data type of a mini-C type. */
DataType
dataTypeOf(const TypePtr &t)
{
    if (t->isChar())
        return DataType::I8;
    if (t->isDouble())
        return DataType::F64;
    return DataType::I64; // int and pointers
}

/** log2 of a power-of-two size, or -1. */
int
log2Exact(int64_t v)
{
    for (int i = 0; i < 62; ++i)
        if (v == (int64_t{1} << i))
            return i;
    return -1;
}

bool
isRelationalBin(BinOp op)
{
    switch (op) {
      case BinOp::Eq: case BinOp::Ne: case BinOp::Lt:
      case BinOp::Le: case BinOp::Gt: case BinOp::Ge:
        return true;
      default:
        return false;
    }
}

class Expander
{
  public:
    Expander(const TranslationUnit &unit, const rtl::MachineTraits &traits,
             rtl::Program &out, obs::RemarkCollector &remarks)
        : unit_(unit), traits_(traits), out_(out), remarks_(remarks)
    {
    }

    void run();

  private:
    // ---- program-level helpers ----
    void emitGlobals();
    std::vector<uint8_t> initBytes(const VarDecl &v);
    std::string floatPoolSymbol(double value);

    // ---- function-level state ----
    rtl::Function *fn_ = nullptr;
    rtl::Block *cur_ = nullptr;
    std::unordered_map<const Decl *, ExprPtr> regVars_;
    std::unordered_map<const Decl *, int64_t> slots_;
    std::vector<std::string> breakLabels_;
    std::vector<std::string> continueLabels_;

    void expandFunction(const FuncDecl &fd);

    // ---- emission helpers ----
    void emit(Inst inst)
    {
        if (!inst.pos.valid())
            inst.pos = curPos_;
        cur_->insts.push_back(std::move(inst));
    }
    /** Start a new block (targets of branches need stable labels). */
    rtl::Block *startBlock(const std::string &label = "")
    {
        cur_ = fn_->addBlock(label);
        return cur_;
    }

    ExprPtr zeroOf(DataType t)
    {
        if (isFloatType(t))
            return makeReg(RegFile::Flt, traits_.zeroReg, DataType::F64);
        return makeConst(0, DataType::I64);
    }

    /** Materialize @p e into a fresh virtual register. */
    ExprPtr toReg(ExprPtr e, DataType t)
    {
        if (e->isReg())
            return e;
        ExprPtr r = fn_->newVReg(t);
        emit(rtl::makeAssign(r, std::move(e)));
        return r;
    }

    /** Emit r := a op b into a fresh vreg of type @p t. */
    ExprPtr emitBin(Op op, ExprPtr a, ExprPtr b, DataType t)
    {
        ExprPtr folded = rtl::makeBin(op, std::move(a), std::move(b));
        if (folded->isConst() || folded->isSym())
            return folded; // constant folding at expansion time
        ExprPtr r = fn_->newVReg(t);
        emit(rtl::makeAssign(r, folded));
        return r;
    }

    ExprPtr ccReg(UnitSide side)
    {
        return makeReg(RegFile::CC, side == UnitSide::Int ? 0 : 1,
                       DataType::I64);
    }

    // ---- lvalues ----
    struct LVal
    {
        ExprPtr reg;    ///< register-resident variable (else null)
        ExprPtr addr;   ///< address leaf for memory-resident lvalues
        DataType dt = DataType::I64;
        TypePtr type;
    };

    LVal lvalue(const Expr &e);
    ExprPtr loadLVal(const LVal &lv);
    void storeLVal(const LVal &lv, ExprPtr val);

    /** Address of an array-typed expression (no load). */
    ExprPtr arrayAddress(const Expr &e);

    // ---- expressions ----
    ExprPtr evalExpr(const Expr &e);
    ExprPtr evalScaledIndex(ExprPtr idx, int64_t elemSize);
    ExprPtr convert(ExprPtr v, const TypePtr &from, const TypePtr &to);
    void emitCondJump(const Expr &e, const std::string &target,
                      bool jumpWhenTrue);

    // ---- statements ----
    void expandStmt(const Stmt &s);

    const TranslationUnit &unit_;
    const rtl::MachineTraits traits_;
    rtl::Program &out_;
    obs::RemarkCollector &remarks_;
    std::unordered_map<uint64_t, std::string> floatPool_;
    int nextFloat_ = 0;
    /** Position of the construct being expanded; emit() stamps it. */
    SourcePos curPos_;
};

void
Expander::run()
{
    emitGlobals();
    for (const auto &fd : unit_.functions)
        if (fd->body)
            expandFunction(*fd);
}

std::vector<uint8_t>
Expander::initBytes(const VarDecl &v)
{
    std::vector<uint8_t> bytes(v.type->size(), 0);
    auto putScalar = [&](int64_t at, const TypePtr &ty,
                         interp::Value val) {
        if (ty->isChar()) {
            bytes[at] = static_cast<uint8_t>(val.i);
        } else if (ty->isDouble()) {
            double d = val.isFloat ? val.f : static_cast<double>(val.i);
            std::memcpy(&bytes[at], &d, 8);
        } else {
            int64_t i = val.isFloat ? truncToInt64(val.f) : val.i;
            std::memcpy(&bytes[at], &i, 8);
        }
    };
    if (v.init.empty())
        return bytes;
    if (v.init.isString) {
        std::memcpy(bytes.data(), v.init.stringInit.data(),
                    v.init.stringInit.size());
        return bytes;
    }
    if (!v.init.list.empty()) {
        int64_t esz = v.type->base()->size();
        for (size_t i = 0; i < v.init.list.size(); ++i)
            putScalar(static_cast<int64_t>(i) * esz, v.type->base(),
                      interp::evalConstExpr(*v.init.list[i]));
        return bytes;
    }
    putScalar(0, v.type, interp::evalConstExpr(*v.init.scalar));
    return bytes;
}

void
Expander::emitGlobals()
{
    for (const auto &[name, data] : unit_.stringPool) {
        auto &g = out_.addGlobal(name, static_cast<int64_t>(data.size()), 1);
        g.init.assign(data.begin(), data.end());
    }
    for (const auto &v : unit_.globals) {
        auto &g = out_.addGlobal(v->name, v->type->size(),
                                 v->type->align());
        g.init = initBytes(*v);
        g.mayBeAliased = v->addressTaken || v->type->isArray();
    }
}

std::string
Expander::floatPoolSymbol(double value)
{
    uint64_t bits;
    std::memcpy(&bits, &value, 8);
    auto it = floatPool_.find(bits);
    if (it != floatPool_.end())
        return it->second;
    std::string name = strFormat("__fc%d", nextFloat_++);
    auto &g = out_.addGlobal(name, 8, 8);
    g.init.resize(8);
    std::memcpy(g.init.data(), &value, 8);
    g.mayBeAliased = false;
    g.readOnly = true;
    floatPool_[bits] = name;
    return name;
}

void
Expander::expandFunction(const FuncDecl &fd)
{
    fn_ = out_.addFunction(fd.name);
    regVars_.clear();
    slots_.clear();
    curPos_ = fd.pos();
    cur_ = fn_->addBlock(fd.name + "_entry");

    // Parameters arrive in the argument registers; copy them out
    // immediately so register assignment owns their lifetime.
    int intArg = 0, fltArg = 0;
    for (const auto &p : fd.params) {
        DataType dt = dataTypeOf(p->type);
        bool isF = isFloatType(dt);
        int idx = traits_.firstArgReg + (isF ? fltArg++ : intArg++);
        WS_ASSERT(idx < traits_.firstArgReg + traits_.numArgRegs,
                  "too many arguments in " + fd.name);
        ExprPtr arg = makeReg(isF ? RegFile::Flt : RegFile::Int, idx,
                              isF ? DataType::F64 : DataType::I64);
        if (p->addressTaken) {
            int64_t off = fn_->allocFrameSlot(8, 8);
            slots_[p.get()] = off;
            ExprPtr sp =
                makeReg(RegFile::Int, traits_.spReg, DataType::I64);
            ExprPtr a = emitBin(Op::Add, sp, makeConst(off), DataType::I64);
            emit(rtl::makeStore(a, arg, dt, "spill param " + p->name));
        } else {
            ExprPtr v = fn_->newVReg(isF ? DataType::F64 : DataType::I64);
            emit(rtl::makeAssign(v, arg, "param " + p->name));
            regVars_[p.get()] = v;
        }
    }

    expandStmt(*fd.body);

    // Implicit return for void functions / main fallthrough.
    if (!cur_->terminator()) {
        if (!fd.returnType()->isVoid()) {
            ExprPtr ret =
                makeReg(RegFile::Int, traits_.retReg, DataType::I64);
            emit(rtl::makeAssign(ret, makeConst(0)));
            Inst r = rtl::makeReturn();
            r.extraUses.push_back(ret);
            emit(std::move(r));
        } else {
            emit(rtl::makeReturn());
        }
    }

    fn_->recomputeCfg();
    fn_->removeUnreachable();
}

Expander::LVal
Expander::lvalue(const Expr &e)
{
    switch (e.kind()) {
      case NodeKind::Ident: {
        const auto &id = static_cast<const IdentExpr &>(e);
        const Decl *d = id.decl;
        LVal lv;
        lv.type = d->type;
        lv.dt = dataTypeOf(d->type);
        if (auto it = regVars_.find(d); it != regVars_.end()) {
            lv.reg = it->second;
            return lv;
        }
        if (auto it = slots_.find(d); it != slots_.end()) {
            ExprPtr sp =
                makeReg(RegFile::Int, traits_.spReg, DataType::I64);
            lv.addr = emitBin(Op::Add, sp, makeConst(it->second),
                              DataType::I64);
            return lv;
        }
        // Global.
        lv.addr = makeSym(d->name);
        return lv;
      }
      case NodeKind::Index: {
        const auto &ix = static_cast<const IndexExpr &>(e);
        ExprPtr base;
        if (ix.base->type->isArray())
            base = arrayAddress(*ix.base);
        else
            base = evalExpr(*ix.base); // pointer value
        ExprPtr idx = evalExpr(*ix.index);
        LVal lv;
        lv.type = e.type;
        lv.dt = dataTypeOf(e.type);
        int64_t esz = e.type->size();
        ExprPtr off = evalScaledIndex(idx, esz);
        lv.addr = emitBin(Op::Add, off, base, DataType::I64);
        return lv;
      }
      case NodeKind::Unary: {
        const auto &u = static_cast<const UnaryExpr &>(e);
        WS_ASSERT(u.op == UnOp::Deref, "bad lvalue unary");
        LVal lv;
        lv.type = e.type;
        lv.dt = dataTypeOf(e.type);
        lv.addr = evalExpr(*u.operand);
        return lv;
      }
      default:
        WS_PANIC("expression is not an lvalue");
    }
}

ExprPtr
Expander::loadLVal(const LVal &lv)
{
    if (lv.reg)
        return lv.reg;
    ExprPtr dst = fn_->newVReg(isFloatType(lv.dt) ? DataType::F64
                                                  : DataType::I64);
    emit(rtl::makeLoad(dst, lv.addr, lv.dt));
    return dst;
}

void
Expander::storeLVal(const LVal &lv, ExprPtr val)
{
    if (lv.reg) {
        if (lv.type->isChar())
            val = rtl::makeBin(Op::And, std::move(val), makeConst(255));
        emit(rtl::makeAssign(lv.reg, std::move(val)));
        return;
    }
    if (!val->isReg()) {
        // Zero can be stored straight from the hardwired zero register.
        if (val->isIntConst(0) && !isFloatType(lv.dt))
            val = makeReg(RegFile::Int, traits_.zeroReg, DataType::I64);
        else
            val = toReg(std::move(val), isFloatType(lv.dt) ? DataType::F64
                                                           : DataType::I64);
    }
    emit(rtl::makeStore(lv.addr, std::move(val), lv.dt));
}

ExprPtr
Expander::arrayAddress(const Expr &e)
{
    switch (e.kind()) {
      case NodeKind::Ident: {
        const auto &id = static_cast<const IdentExpr &>(e);
        const Decl *d = id.decl;
        if (auto it = slots_.find(d); it != slots_.end()) {
            ExprPtr sp =
                makeReg(RegFile::Int, traits_.spReg, DataType::I64);
            return emitBin(Op::Add, sp, makeConst(it->second),
                           DataType::I64);
        }
        return makeSym(d->name);
      }
      case NodeKind::Index: {
        // Row of a multi-dimensional array: compute the row address.
        const auto &ix = static_cast<const IndexExpr &>(e);
        ExprPtr base = ix.base->type->isArray() ? arrayAddress(*ix.base)
                                                : evalExpr(*ix.base);
        ExprPtr idx = evalExpr(*ix.index);
        ExprPtr off = evalScaledIndex(idx, e.type->size());
        return emitBin(Op::Add, off, base, DataType::I64);
      }
      case NodeKind::Cast:
        return arrayAddress(*static_cast<const CastExpr &>(e).operand);
      default:
        WS_PANIC("arrayAddress: unexpected node");
    }
}

ExprPtr
Expander::evalScaledIndex(ExprPtr idx, int64_t elemSize)
{
    if (elemSize == 1)
        return idx;
    int shift = log2Exact(elemSize);
    if (shift >= 0)
        return emitBin(Op::Shl, std::move(idx), makeConst(shift),
                       DataType::I64);
    return emitBin(Op::Mul, std::move(idx), makeConst(elemSize),
                   DataType::I64);
}

ExprPtr
Expander::convert(ExprPtr v, const TypePtr &from, const TypePtr &to)
{
    bool ff = from->isDouble();
    bool tf = to->isDouble();
    if (ff == tf) {
        if (to->isChar() && !from->isChar())
            return emitBin(Op::And, std::move(v), makeConst(255),
                           DataType::I64);
        return v;
    }
    ExprPtr r = fn_->newVReg(tf ? DataType::F64 : DataType::I64);
    emit(rtl::makeAssign(
        r, rtl::makeUn(tf ? Op::CvtIF : Op::CvtFI, toReg(std::move(v),
                       ff ? DataType::F64 : DataType::I64),
                       tf ? DataType::F64 : DataType::I64)));
    return r;
}

void
Expander::emitCondJump(const Expr &e, const std::string &target,
                       bool jumpWhenTrue)
{
    // Short-circuit forms decompose into control flow.
    if (e.kind() == NodeKind::Binary) {
        const auto &b = static_cast<const BinaryExpr &>(e);
        if (b.op == BinOp::LogAnd) {
            if (jumpWhenTrue) {
                std::string skip = fn_->newLabel();
                emitCondJump(*b.lhs, skip, false);
                startBlock();
                emitCondJump(*b.rhs, target, true);
                startBlock(skip);
            } else {
                emitCondJump(*b.lhs, target, false);
                startBlock();
                emitCondJump(*b.rhs, target, false);
                startBlock();
            }
            return;
        }
        if (b.op == BinOp::LogOr) {
            if (jumpWhenTrue) {
                emitCondJump(*b.lhs, target, true);
                startBlock();
                emitCondJump(*b.rhs, target, true);
                startBlock();
            } else {
                std::string skip = fn_->newLabel();
                emitCondJump(*b.lhs, skip, true);
                startBlock();
                emitCondJump(*b.rhs, target, false);
                startBlock(skip);
            }
            return;
        }
        // Direct relational compare.
        Op rel = Op::Eq;
        bool isRel = true;
        switch (b.op) {
          case BinOp::Eq: rel = Op::Eq; break;
          case BinOp::Ne: rel = Op::Ne; break;
          case BinOp::Lt: rel = Op::Lt; break;
          case BinOp::Le: rel = Op::Le; break;
          case BinOp::Gt: rel = Op::Gt; break;
          case BinOp::Ge: rel = Op::Ge; break;
          default: isRel = false; break;
        }
        if (isRel) {
            ExprPtr l = evalExpr(*b.lhs);
            ExprPtr r = evalExpr(*b.rhs);
            bool flt = b.lhs->type->isDouble() || b.rhs->type->isDouble();
            UnitSide side = flt ? UnitSide::Flt : UnitSide::Int;
            emit(rtl::makeAssign(ccReg(side), rtl::makeBin(rel, l, r)));
            emit(rtl::makeCondJump(side, jumpWhenTrue, target));
            startBlock();
            return;
        }
    }
    if (e.kind() == NodeKind::Unary) {
        const auto &u = static_cast<const UnaryExpr &>(e);
        if (u.op == UnOp::LogNot) {
            emitCondJump(*u.operand, target, !jumpWhenTrue);
            return;
        }
    }
    // Generic: value != 0.
    ExprPtr v = evalExpr(e);
    bool flt = e.type->isDouble();
    UnitSide side = flt ? UnitSide::Flt : UnitSide::Int;
    emit(rtl::makeAssign(ccReg(side),
                         rtl::makeBin(Op::Ne, toReg(v, flt ? DataType::F64
                                                           : DataType::I64),
                                      zeroOf(flt ? DataType::F64
                                                 : DataType::I64))));
    emit(rtl::makeCondJump(side, jumpWhenTrue, target));
    startBlock();
}

ExprPtr
Expander::evalExpr(const Expr &e)
{
    if (e.pos().valid())
        curPos_ = e.pos();
    switch (e.kind()) {
      case NodeKind::IntLit:
        return makeConst(static_cast<const IntLitExpr &>(e).value,
                         DataType::I64);
      case NodeKind::FloatLit: {
        double v = static_cast<const FloatLitExpr &>(e).value;
        if (v == 0.0)
            return makeReg(RegFile::Flt, traits_.zeroReg, DataType::F64);
        ExprPtr dst = fn_->newVReg(DataType::F64);
        emit(rtl::makeLoad(dst, makeSym(floatPoolSymbol(v)),
                           DataType::F64));
        return dst;
      }
      case NodeKind::StrLit:
        return makeSym(static_cast<const StrLitExpr &>(e).poolName);
      case NodeKind::Ident: {
        const auto &id = static_cast<const IdentExpr &>(e);
        if (id.type->isArray())
            return arrayAddress(e);
        LVal lv = lvalue(e);
        return loadLVal(lv);
      }
      case NodeKind::Cast: {
        const auto &c = static_cast<const CastExpr &>(e);
        if (c.operand->type && c.operand->type->isArray())
            return arrayAddress(*c.operand);
        ExprPtr v = evalExpr(*c.operand);
        return convert(std::move(v), c.operand->type, c.type);
      }
      case NodeKind::Unary: {
        const auto &u = static_cast<const UnaryExpr &>(e);
        switch (u.op) {
          case UnOp::Neg: {
            ExprPtr v = evalExpr(*u.operand);
            bool flt = e.type->isDouble();
            DataType dt = flt ? DataType::F64 : DataType::I64;
            return emitBin(Op::Sub, zeroOf(dt), toReg(std::move(v), dt),
                           dt);
          }
          case UnOp::BitNot: {
            ExprPtr v = evalExpr(*u.operand);
            return emitBin(Op::Xor, toReg(std::move(v), DataType::I64),
                           makeConst(-1), DataType::I64);
          }
          case UnOp::LogNot:
          case UnOp::Deref: {
            if (u.op == UnOp::Deref) {
                LVal lv = lvalue(e);
                return loadLVal(lv);
            }
            // !x via branches (compare results live in the CC FIFO,
            // not a register, on WM).
            ExprPtr r = fn_->newVReg(DataType::I64);
            std::string t = fn_->newLabel();
            emit(rtl::makeAssign(r, makeConst(1)));
            emitCondJump(*u.operand, t, false);
            emit(rtl::makeAssign(r, makeConst(0)));
            startBlock(t);
            return r;
          }
          case UnOp::AddrOf: {
            if (u.operand->type && u.operand->type->isArray())
                return arrayAddress(*u.operand);
            LVal lv = lvalue(*u.operand);
            WS_ASSERT(lv.addr, "address of register variable");
            return lv.addr;
          }
          case UnOp::PreInc:
          case UnOp::PreDec:
          case UnOp::PostInc:
          case UnOp::PostDec: {
            LVal lv = lvalue(*u.operand);
            ExprPtr old = loadLVal(lv);
            bool inc = u.op == UnOp::PreInc || u.op == UnOp::PostInc;
            bool post = u.op == UnOp::PostInc || u.op == UnOp::PostDec;
            int64_t delta = 1;
            if (lv.type->isPointer())
                delta = lv.type->base()->size();
            ExprPtr nv;
            if (lv.type->isDouble()) {
                ExprPtr one = evalExpr(
                    FloatLitExpr(u.pos(), 1.0)); // pooled constant
                nv = emitBin(inc ? Op::Add : Op::Sub, old, one,
                             DataType::F64);
            } else {
                nv = emitBin(inc ? Op::Add : Op::Sub, old,
                             makeConst(delta), DataType::I64);
            }
            // For register lvalues the post-value must be captured
            // before the store overwrites the register.
            ExprPtr result = post ? old : nv;
            if (post && lv.reg) {
                result = fn_->newVReg(old->type());
                emit(rtl::makeAssign(result, old));
            }
            storeLVal(lv, nv);
            return result;
          }
        }
        WS_PANIC("bad unary op");
      }
      case NodeKind::Binary: {
        const auto &b = static_cast<const BinaryExpr &>(e);
        if (b.op == BinOp::LogAnd || b.op == BinOp::LogOr ||
                isRelationalBin(b.op)) {
            // Value context: materialize 0/1 through branches.
            ExprPtr r = fn_->newVReg(DataType::I64);
            std::string t = fn_->newLabel();
            emit(rtl::makeAssign(r, makeConst(1)));
            emitCondJump(e, t, true);
            emit(rtl::makeAssign(r, makeConst(0)));
            startBlock(t);
            return r;
        }

        // Pointer arithmetic (Sema put the pointer on the left).
        if (b.lhs->type->isPointer() &&
                (b.op == BinOp::Add || b.op == BinOp::Sub)) {
            ExprPtr l = evalExpr(*b.lhs);
            ExprPtr r = evalExpr(*b.rhs);
            int64_t esz = b.lhs->type->base()->size();
            if (b.rhs->type->isPointer()) {
                ExprPtr diff = emitBin(Op::Sub, l, r, DataType::I64);
                if (esz == 1)
                    return diff;
                int sh = log2Exact(esz);
                WS_ASSERT(sh >= 0, "pointer diff with odd element size");
                return emitBin(Op::Sar, diff, makeConst(sh),
                               DataType::I64);
            }
            ExprPtr off = evalScaledIndex(std::move(r), esz);
            return emitBin(b.op == BinOp::Add ? Op::Add : Op::Sub, l, off,
                           DataType::I64);
        }

        ExprPtr l = evalExpr(*b.lhs);
        ExprPtr r = evalExpr(*b.rhs);
        bool flt = e.type->isDouble();
        DataType dt = flt ? DataType::F64 : DataType::I64;
        Op op;
        switch (b.op) {
          case BinOp::Add: op = Op::Add; break;
          case BinOp::Sub: op = Op::Sub; break;
          case BinOp::Mul: op = Op::Mul; break;
          case BinOp::Div: op = Op::Div; break;
          case BinOp::Rem: op = Op::Rem; break;
          case BinOp::Shl: op = Op::Shl; break;
          case BinOp::Shr: op = Op::Sar; break;
          case BinOp::BitAnd: op = Op::And; break;
          case BinOp::BitOr: op = Op::Or; break;
          case BinOp::BitXor: op = Op::Xor; break;
          default: WS_PANIC("bad binary op");
        }
        return emitBin(op, std::move(l), std::move(r), dt);
      }
      case NodeKind::Assign: {
        const auto &a = static_cast<const AssignExpr &>(e);
        if (a.op == BinOp::None) {
            ExprPtr v = evalExpr(*a.rhs);
            LVal lv = lvalue(*a.lhs);
            storeLVal(lv, v);
            // The value of the assignment is the stored (converted)
            // value; chars read back truncated.
            if (lv.type->isChar() && !lv.reg)
                return emitBin(Op::And, toReg(std::move(v), DataType::I64),
                               makeConst(255), DataType::I64);
            if (lv.reg)
                return lv.reg;
            return v;
        }
        // Compound: load, op, store.
        LVal lv = lvalue(*a.lhs);
        ExprPtr old = loadLVal(lv);
        ExprPtr rhs = evalExpr(*a.rhs);
        ExprPtr nv;
        if (lv.type->isPointer()) {
            ExprPtr off = evalScaledIndex(std::move(rhs),
                                          lv.type->base()->size());
            nv = emitBin(a.op == BinOp::Add ? Op::Add : Op::Sub, old, off,
                         DataType::I64);
        } else {
            bool flt = lv.type->isDouble();
            DataType dt = flt ? DataType::F64 : DataType::I64;
            if (flt && !isFloatType(rhs->type()))
                rhs = convert(rhs, Type::intTy(), Type::doubleTy());
            Op op;
            switch (a.op) {
              case BinOp::Add: op = Op::Add; break;
              case BinOp::Sub: op = Op::Sub; break;
              case BinOp::Mul: op = Op::Mul; break;
              case BinOp::Div: op = Op::Div; break;
              case BinOp::Rem: op = Op::Rem; break;
              default: WS_PANIC("bad compound op");
            }
            nv = emitBin(op, old, rhs, dt);
        }
        storeLVal(lv, nv);
        return nv;
    }
      case NodeKind::Cond: {
        const auto &c = static_cast<const CondExpr &>(e);
        bool flt = e.type->isDouble();
        ExprPtr r = fn_->newVReg(flt ? DataType::F64 : DataType::I64);
        std::string elseL = fn_->newLabel();
        std::string endL = fn_->newLabel();
        emitCondJump(*c.cond, elseL, false);
        emit(rtl::makeAssign(r, toReg(evalExpr(*c.thenExpr),
                                      flt ? DataType::F64
                                          : DataType::I64)));
        emit(rtl::makeJump(endL));
        startBlock(elseL);
        emit(rtl::makeAssign(r, toReg(evalExpr(*c.elseExpr),
                                      flt ? DataType::F64
                                          : DataType::I64)));
        startBlock(endL);
        return r;
      }
      case NodeKind::Index: {
        LVal lv = lvalue(e);
        if (e.type->isArray())
            return lv.addr;
        return loadLVal(lv);
      }
      case NodeKind::Call: {
        const auto &c = static_cast<const CallExpr &>(e);
        // Evaluate all arguments first (they may contain calls).
        std::vector<ExprPtr> vals;
        for (const auto &a : c.args)
            vals.push_back(toReg(evalExpr(*a),
                                 a->type->isDouble() ? DataType::F64
                                                     : DataType::I64));
        Inst call = rtl::makeCall(c.callee);
        int intArg = 0, fltArg = 0;
        for (size_t i = 0; i < vals.size(); ++i) {
            bool isF = isFloatType(vals[i]->type());
            int idx = traits_.firstArgReg + (isF ? fltArg++ : intArg++);
            WS_ASSERT(idx < traits_.firstArgReg + traits_.numArgRegs,
                      "too many arguments to " + c.callee);
            ExprPtr argReg = makeReg(isF ? RegFile::Flt : RegFile::Int,
                                     idx,
                                     isF ? DataType::F64 : DataType::I64);
            emit(rtl::makeAssign(argReg, vals[i]));
            call.extraUses.push_back(argReg);
        }
        emit(std::move(call));
        if (c.type->isVoid())
            return makeConst(0);
        bool flt = c.type->isDouble();
        ExprPtr ret = makeReg(flt ? RegFile::Flt : RegFile::Int,
                              traits_.retReg,
                              flt ? DataType::F64 : DataType::I64);
        ExprPtr r = fn_->newVReg(flt ? DataType::F64 : DataType::I64);
        emit(rtl::makeAssign(r, ret));
        return r;
      }
      default:
        WS_PANIC("evalExpr: unexpected node kind");
    }
}

void
Expander::expandStmt(const Stmt &s)
{
    if (s.pos().valid())
        curPos_ = s.pos();
    switch (s.kind()) {
      case NodeKind::BlockStmt: {
        const auto &b = static_cast<const BlockStmt &>(s);
        for (const auto &st : b.stmts)
            expandStmt(*st);
        break;
      }
      case NodeKind::DeclStmt: {
        const auto &d = static_cast<const DeclStmt &>(s);
        for (const auto &v : d.vars) {
            if (v->addressTaken || v->type->isArray()) {
                int64_t off = fn_->allocFrameSlot(v->type->size(),
                                                  v->type->align());
                slots_[v.get()] = off;
                if (v->init.scalar) {
                    ExprPtr val = toReg(
                        evalExpr(*v->init.scalar),
                        v->type->isDouble() ? DataType::F64
                                            : DataType::I64);
                    ExprPtr sp = makeReg(RegFile::Int, traits_.spReg,
                                         DataType::I64);
                    ExprPtr a = emitBin(Op::Add, sp, makeConst(off),
                                        DataType::I64);
                    emit(rtl::makeStore(a, val, dataTypeOf(v->type)));
                }
                // Stack arrays are not zero-initialized (like C).
            } else {
                DataType dt = dataTypeOf(v->type);
                bool flt = isFloatType(dt);
                ExprPtr r = fn_->newVReg(flt ? DataType::F64
                                             : DataType::I64);
                regVars_[v.get()] = r;
                if (v->init.scalar) {
                    ExprPtr val = evalExpr(*v->init.scalar);
                    if (flt && !isFloatType(val->type()))
                        val = convert(val, Type::intTy(),
                                      Type::doubleTy());
                    if (v->type->isChar())
                        val = rtl::makeBin(Op::And, val, makeConst(255));
                    emit(rtl::makeAssign(r, val, "init " + v->name));
                }
            }
        }
        break;
      }
      case NodeKind::ExprStmt:
        evalExpr(*static_cast<const ExprStmt &>(s).expr);
        break;
      case NodeKind::IfStmt: {
        const auto &i = static_cast<const IfStmt &>(s);
        std::string elseL = fn_->newLabel();
        emitCondJump(*i.cond, elseL, false);
        expandStmt(*i.thenStmt);
        if (i.elseStmt) {
            std::string endL = fn_->newLabel();
            if (!cur_->terminator())
                emit(rtl::makeJump(endL));
            startBlock(elseL);
            expandStmt(*i.elseStmt);
            startBlock(endL);
        } else {
            startBlock(elseL);
        }
        break;
      }
      case NodeKind::WhileStmt: {
        const auto &w = static_cast<const WhileStmt &>(s);
        std::string headL = fn_->newLabel();
        std::string contL = fn_->newLabel();
        std::string exitL = fn_->newLabel();
        remarks_.loopId(fn_->name(), headL, w.pos());
        emitCondJump(*w.cond, exitL, false); // guard
        startBlock(headL);
        breakLabels_.push_back(exitL);
        continueLabels_.push_back(contL);
        expandStmt(*w.body);
        breakLabels_.pop_back();
        continueLabels_.pop_back();
        startBlock(contL);
        emitCondJump(*w.cond, headL, true); // bottom test
        startBlock(exitL);
        break;
      }
      case NodeKind::DoWhileStmt: {
        const auto &w = static_cast<const DoWhileStmt &>(s);
        std::string headL = fn_->newLabel();
        std::string contL = fn_->newLabel();
        std::string exitL = fn_->newLabel();
        remarks_.loopId(fn_->name(), headL, w.pos());
        startBlock(headL);
        breakLabels_.push_back(exitL);
        continueLabels_.push_back(contL);
        expandStmt(*w.body);
        breakLabels_.pop_back();
        continueLabels_.pop_back();
        startBlock(contL);
        emitCondJump(*w.cond, headL, true);
        startBlock(exitL);
        break;
      }
      case NodeKind::ForStmt: {
        const auto &f = static_cast<const ForStmt &>(s);
        std::string headL = fn_->newLabel();
        std::string contL = fn_->newLabel();
        std::string exitL = fn_->newLabel();
        remarks_.loopId(fn_->name(), headL, f.pos());
        if (f.init)
            evalExpr(*f.init);
        if (f.cond)
            emitCondJump(*f.cond, exitL, false); // guard
        startBlock(headL);
        breakLabels_.push_back(exitL);
        continueLabels_.push_back(contL);
        expandStmt(*f.body);
        breakLabels_.pop_back();
        continueLabels_.pop_back();
        startBlock(contL);
        if (f.step)
            evalExpr(*f.step);
        if (f.cond) {
            emitCondJump(*f.cond, headL, true); // bottom test
        } else {
            emit(rtl::makeJump(headL));
        }
        startBlock(exitL);
        break;
      }
      case NodeKind::ReturnStmt: {
        const auto &r = static_cast<const ReturnStmt &>(s);
        Inst ret = rtl::makeReturn();
        if (r.value) {
            bool flt = r.value->type->isDouble();
            ExprPtr reg = makeReg(flt ? RegFile::Flt : RegFile::Int,
                                  traits_.retReg,
                                  flt ? DataType::F64 : DataType::I64);
            emit(rtl::makeAssign(reg, toReg(evalExpr(*r.value),
                                            flt ? DataType::F64
                                                : DataType::I64)));
            ret.extraUses.push_back(reg);
        }
        emit(std::move(ret));
        startBlock();
        break;
      }
      case NodeKind::BreakStmt:
        WS_ASSERT(!breakLabels_.empty(), "break outside loop");
        emit(rtl::makeJump(breakLabels_.back()));
        startBlock();
        break;
      case NodeKind::ContinueStmt:
        WS_ASSERT(!continueLabels_.empty(), "continue outside loop");
        emit(rtl::makeJump(continueLabels_.back()));
        startBlock();
        break;
      default:
        WS_PANIC("expandStmt: unexpected node kind");
    }
}

} // anonymous namespace

void
expandUnit(const TranslationUnit &unit, const rtl::MachineTraits &traits,
           rtl::Program &out, obs::RemarkCollector &remarks)
{
    Expander e(unit, traits, out, remarks);
    e.run();
}

} // namespace wmstream::expand
