#include "interp/interp.h"

#include <cstring>

#include "rtl/image.h"
#include "support/convert.h"
#include "support/str.h"

namespace wmstream::interp {

using namespace frontend;

namespace {

int64_t
wrapAdd(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) +
                                static_cast<uint64_t>(b));
}

int64_t
wrapSub(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) -
                                static_cast<uint64_t>(b));
}

int64_t
wrapMul(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) *
                                static_cast<uint64_t>(b));
}

/** a / b for b != 0; INT64_MIN / -1 wraps to INT64_MIN. */
int64_t
wrapDiv(int64_t a, int64_t b)
{
    return b == -1 ? wrapSub(0, a) : a / b;
}

/** a % b for b != 0; INT64_MIN % -1 is 0. */
int64_t
wrapRem(int64_t a, int64_t b)
{
    return b == -1 ? 0 : a % b;
}

} // anonymous namespace

Value
evalConstExpr(const Expr &e)
{
    switch (e.kind()) {
      case NodeKind::IntLit:
        return Value::ofInt(static_cast<const IntLitExpr &>(e).value);
      case NodeKind::FloatLit:
        return Value::ofFloat(static_cast<const FloatLitExpr &>(e).value);
      case NodeKind::Unary: {
        const auto &u = static_cast<const UnaryExpr &>(e);
        WS_ASSERT(u.op == UnOp::Neg, "non-constant unary initializer");
        Value v = evalConstExpr(*u.operand);
        return v.isFloat ? Value::ofFloat(-v.f)
                         : Value::ofInt(wrapSub(0, v.i));
      }
      case NodeKind::Cast: {
        const auto &c = static_cast<const CastExpr &>(e);
        Value v = evalConstExpr(*c.operand);
        if (c.type->isDouble() && !v.isFloat)
            return Value::ofFloat(static_cast<double>(v.i));
        if (!c.type->isDouble() && v.isFloat)
            return Value::ofInt(truncToInt64(v.f));
        return v;
      }
      case NodeKind::Binary: {
        const auto &b = static_cast<const BinaryExpr &>(e);
        Value l = evalConstExpr(*b.lhs);
        Value r = evalConstExpr(*b.rhs);
        if (l.isFloat || r.isFloat) {
            double a = l.isFloat ? l.f : static_cast<double>(l.i);
            double c = r.isFloat ? r.f : static_cast<double>(r.i);
            switch (b.op) {
              case BinOp::Add: return Value::ofFloat(a + c);
              case BinOp::Sub: return Value::ofFloat(a - c);
              case BinOp::Mul: return Value::ofFloat(a * c);
              case BinOp::Div: return Value::ofFloat(a / c);
              case BinOp::Eq: return Value::ofInt(a == c);
              case BinOp::Ne: return Value::ofInt(a != c);
              case BinOp::Lt: return Value::ofInt(a < c);
              case BinOp::Le: return Value::ofInt(a <= c);
              case BinOp::Gt: return Value::ofInt(a > c);
              case BinOp::Ge: return Value::ofInt(a >= c);
              case BinOp::LogAnd:
                return Value::ofInt(a != 0.0 && c != 0.0);
              case BinOp::LogOr:
                return Value::ofInt(a != 0.0 || c != 0.0);
              default: WS_PANIC("bad constant float operator");
            }
        }
        switch (b.op) {
          case BinOp::Add: return Value::ofInt(wrapAdd(l.i, r.i));
          case BinOp::Sub: return Value::ofInt(wrapSub(l.i, r.i));
          case BinOp::Mul: return Value::ofInt(wrapMul(l.i, r.i));
          case BinOp::Div:
            // Sema rejects constant zero divisors before expansion.
            WS_ASSERT(r.i != 0, "constant division by zero");
            return Value::ofInt(wrapDiv(l.i, r.i));
          case BinOp::Rem:
            WS_ASSERT(r.i != 0, "constant remainder by zero");
            return Value::ofInt(wrapRem(l.i, r.i));
          case BinOp::Shl: return Value::ofInt(l.i << (r.i & 63));
          case BinOp::Shr: return Value::ofInt(l.i >> (r.i & 63));
          case BinOp::BitAnd: return Value::ofInt(l.i & r.i);
          case BinOp::BitOr: return Value::ofInt(l.i | r.i);
          case BinOp::BitXor: return Value::ofInt(l.i ^ r.i);
          case BinOp::Eq: return Value::ofInt(l.i == r.i);
          case BinOp::Ne: return Value::ofInt(l.i != r.i);
          case BinOp::Lt: return Value::ofInt(l.i < r.i);
          case BinOp::Le: return Value::ofInt(l.i <= r.i);
          case BinOp::Gt: return Value::ofInt(l.i > r.i);
          case BinOp::Ge: return Value::ofInt(l.i >= r.i);
          case BinOp::LogAnd: return Value::ofInt(l.i && r.i);
          case BinOp::LogOr: return Value::ofInt(l.i || r.i);
          default: WS_PANIC("bad constant integer operator");
        }
      }
      default:
        WS_PANIC("non-constant initializer expression");
    }
}

Interpreter::Interpreter(const TranslationUnit &unit)
    : unit_(unit), sp_(rtl::kInitialSp)
{
    layoutGlobals();
}

void
Interpreter::layoutGlobals()
{
    int64_t addr = rtl::kStackBytes;
    auto place = [&](const std::string &name, int64_t size, int64_t align) {
        addr = (addr + align - 1) & ~(align - 1);
        globalAddrs_[name] = addr;
        if (addr + size > rtl::kMaxImageBytes && startError_.empty())
            startError_ = rtl::globalTooLargeMessage(name, size, addr);
        addr += size;
    };
    for (const auto &[name, bytes] : unit_.stringPool)
        place(name, static_cast<int64_t>(bytes.size()), 1);
    for (const auto &g : unit_.globals)
        place(g->name, g->type->size(), g->type->align());
    if (!startError_.empty())
        return;

    mem_.assign(static_cast<size_t>(rtl::imageBytesFor(addr)), 0);
    for (const auto &[name, bytes] : unit_.stringPool)
        std::memcpy(&mem_[globalAddrs_.at(name)], bytes.data(),
                    bytes.size());
    for (const auto &g : unit_.globals)
        storeInit(globalAddrs_.at(g->name), g->type, g->init);
}

void
Interpreter::storeInit(int64_t addr, const TypePtr &ty,
                       const Initializer &init)
{
    if (init.empty())
        return;
    if (init.isString) {
        checkAddr(addr, static_cast<int64_t>(init.stringInit.size()) + 1);
        std::memcpy(&mem_[addr], init.stringInit.data(),
                    init.stringInit.size());
        mem_[addr + init.stringInit.size()] = 0;
        return;
    }
    if (!init.list.empty()) {
        int64_t esz = ty->base()->size();
        for (size_t i = 0; i < init.list.size(); ++i) {
            Value v = evalConstExpr(*init.list[i]);
            storeScalar(addr + static_cast<int64_t>(i) * esz, ty->base(),
                        v);
        }
        return;
    }
    storeScalar(addr, ty, evalConstExpr(*init.scalar));
}

int64_t
Interpreter::globalAddress(const std::string &name) const
{
    auto it = globalAddrs_.find(name);
    WS_ASSERT(it != globalAddrs_.end(), "unknown global " + name);
    return it->second;
}

int64_t
Interpreter::readInt(int64_t addr) const
{
    checkAddr(addr, 8);
    int64_t v;
    std::memcpy(&v, &mem_[addr], 8);
    return v;
}

double
Interpreter::readDouble(int64_t addr) const
{
    checkAddr(addr, 8);
    double v;
    std::memcpy(&v, &mem_[addr], 8);
    return v;
}

uint8_t
Interpreter::readByte(int64_t addr) const
{
    checkAddr(addr, 1);
    return mem_[addr];
}

void
Interpreter::checkAddr(int64_t addr, int64_t size) const
{
    if (addr < 0)
        throw RunError(rtl::kStackOverflowMessage);
    if (size < 0 || addr + size > static_cast<int64_t>(mem_.size())) {
        throw RunError(strFormat("out-of-bounds access at %lld size %lld",
                                 static_cast<long long>(addr),
                                 static_cast<long long>(size)));
    }
}

void
Interpreter::budget()
{
    if (++steps_ > stepBudget_)
        throw RunError("step budget exhausted (possible infinite loop)");
}

void
Interpreter::storeScalar(int64_t addr, const TypePtr &ty, Value v)
{
    if (ty->isChar()) {
        checkAddr(addr, 1);
        mem_[addr] = static_cast<uint8_t>(v.i);
        return;
    }
    checkAddr(addr, 8);
    if (ty->isDouble()) {
        double d = v.isFloat ? v.f : static_cast<double>(v.i);
        std::memcpy(&mem_[addr], &d, 8);
    } else {
        int64_t i = v.isFloat ? truncToInt64(v.f) : v.i;
        std::memcpy(&mem_[addr], &i, 8);
    }
}

Value
Interpreter::loadScalar(int64_t addr, const TypePtr &ty) const
{
    if (ty->isChar()) {
        checkAddr(addr, 1);
        return Value::ofInt(mem_[addr]); // unsigned char semantics
    }
    checkAddr(addr, 8);
    if (ty->isDouble()) {
        double d;
        std::memcpy(&d, &mem_[addr], 8);
        return Value::ofFloat(d);
    }
    int64_t i;
    std::memcpy(&i, &mem_[addr], 8);
    return Value::ofInt(i);
}

InterpResult
Interpreter::run(uint64_t stepBudget)
{
    stepBudget_ = stepBudget;
    steps_ = 0;
    InterpResult res;
    if (!startError_.empty()) {
        res.error = startError_;
        return res;
    }
    const FuncDecl *mainFn = unit_.findFunction("main");
    if (!mainFn || !mainFn->body) {
        res.error = "no main() defined";
        return res;
    }
    try {
        Value v = callFunction(*mainFn, {});
        res.ok = true;
        res.returnValue = v.isFloat ? truncToInt64(v.f) : v.i;
    } catch (const RunError &e) {
        res.error = e.what();
    }
    res.stepsExecuted = steps_;
    return res;
}

Value
Interpreter::callFunction(const FuncDecl &fn, std::vector<Value> args)
{
    if (++callDepth_ > 4000) {
        --callDepth_;
        throw RunError("call stack overflow");
    }
    Frame frame;
    frame.savedSp = sp_;

    WS_ASSERT(args.size() == fn.params.size(), "arg count mismatch");
    for (size_t i = 0; i < fn.params.size(); ++i) {
        const ParamDecl *p = fn.params[i].get();
        if (p->addressTaken) {
            sp_ -= 8;
            sp_ &= ~7;
            frame.slots[p] = sp_;
            storeScalar(sp_, p->type, args[i]);
        } else {
            frame.regs[p] = args[i];
        }
    }

    Value ret = Value::ofInt(0);
    Flow flow = execStmt(*fn.body, frame, ret);
    if (flow == Flow::Break || flow == Flow::Continue)
        throw RunError("break/continue outside loop");

    sp_ = frame.savedSp;
    --callDepth_;
    return ret;
}

Interpreter::Flow
Interpreter::execStmt(const Stmt &s, Frame &frame, Value &retVal)
{
    budget();
    switch (s.kind()) {
      case NodeKind::BlockStmt: {
        const auto &b = static_cast<const BlockStmt &>(s);
        for (const auto &st : b.stmts) {
            Flow f = execStmt(*st, frame, retVal);
            if (f != Flow::Normal)
                return f;
        }
        return Flow::Normal;
      }
      case NodeKind::DeclStmt: {
        const auto &d = static_cast<const DeclStmt &>(s);
        for (const auto &v : d.vars) {
            if (v->addressTaken || v->type->isArray()) {
                int64_t size = v->type->size();
                int64_t align = v->type->align();
                sp_ -= size;
                sp_ &= ~(align - 1);
                frame.slots[v.get()] = sp_;
                checkAddr(sp_, size);
                std::memset(&mem_[sp_], 0, size);
                if (!v->init.empty())
                    if (v->init.scalar) {
                        Value iv = evalExpr(*v->init.scalar, frame);
                        storeScalar(sp_, v->type, iv);
                    }
            } else {
                Value iv = Value::ofInt(0);
                if (v->type->isDouble())
                    iv = Value::ofFloat(0.0);
                if (v->init.scalar)
                    iv = evalExpr(*v->init.scalar, frame);
                if (v->type->isDouble() && !iv.isFloat)
                    iv = Value::ofFloat(static_cast<double>(iv.i));
                frame.regs[v.get()] = iv;
            }
        }
        return Flow::Normal;
      }
      case NodeKind::ExprStmt:
        evalExpr(*static_cast<const ExprStmt &>(s).expr, frame);
        return Flow::Normal;
      case NodeKind::IfStmt: {
        const auto &i = static_cast<const IfStmt &>(s);
        if (evalExpr(*i.cond, frame).truthy())
            return execStmt(*i.thenStmt, frame, retVal);
        if (i.elseStmt)
            return execStmt(*i.elseStmt, frame, retVal);
        return Flow::Normal;
      }
      case NodeKind::WhileStmt: {
        const auto &w = static_cast<const WhileStmt &>(s);
        while (evalExpr(*w.cond, frame).truthy()) {
            Flow f = execStmt(*w.body, frame, retVal);
            if (f == Flow::Break)
                break;
            if (f == Flow::Return)
                return f;
        }
        return Flow::Normal;
      }
      case NodeKind::DoWhileStmt: {
        const auto &w = static_cast<const DoWhileStmt &>(s);
        do {
            Flow f = execStmt(*w.body, frame, retVal);
            if (f == Flow::Break)
                break;
            if (f == Flow::Return)
                return f;
        } while (evalExpr(*w.cond, frame).truthy());
        return Flow::Normal;
      }
      case NodeKind::ForStmt: {
        const auto &fo = static_cast<const ForStmt &>(s);
        if (fo.init)
            evalExpr(*fo.init, frame);
        for (;;) {
            if (fo.cond && !evalExpr(*fo.cond, frame).truthy())
                break;
            Flow f = execStmt(*fo.body, frame, retVal);
            if (f == Flow::Break)
                break;
            if (f == Flow::Return)
                return f;
            if (fo.step)
                evalExpr(*fo.step, frame);
        }
        return Flow::Normal;
      }
      case NodeKind::ReturnStmt: {
        const auto &r = static_cast<const ReturnStmt &>(s);
        if (r.value)
            retVal = evalExpr(*r.value, frame);
        return Flow::Return;
      }
      case NodeKind::BreakStmt:
        return Flow::Break;
      case NodeKind::ContinueStmt:
        return Flow::Continue;
      default:
        WS_PANIC("execStmt: unexpected node kind");
    }
}

Interpreter::LValue
Interpreter::evalLValue(const Expr &e, Frame &frame)
{
    switch (e.kind()) {
      case NodeKind::Ident: {
        const auto &id = static_cast<const IdentExpr &>(e);
        const Decl *d = id.decl;
        LValue lv;
        lv.type = d->type;
        // Register-resident local/param?
        if (frame.regs.count(d)) {
            lv.reg = d;
            return lv;
        }
        if (auto it = frame.slots.find(d); it != frame.slots.end()) {
            lv.addr = it->second;
            return lv;
        }
        auto git = globalAddrs_.find(d->name);
        if (git == globalAddrs_.end())
            throw RunError("unbound identifier " + d->name);
        lv.addr = git->second;
        return lv;
      }
      case NodeKind::Index: {
        const auto &ix = static_cast<const IndexExpr &>(e);
        int64_t base;
        TypePtr bt = ix.base->type;
        if (bt->isArray()) {
            LValue blv = evalLValue(*ix.base, frame);
            WS_ASSERT(!blv.reg, "array in register");
            base = blv.addr;
        } else {
            base = evalExpr(*ix.base, frame).i;
        }
        int64_t idx = evalExpr(*ix.index, frame).i;
        LValue lv;
        lv.type = e.type;
        lv.addr = base + idx * e.type->size();
        // Arrays of arrays: size() above is element storage size, which
        // for a sub-array is the whole row, exactly what row indexing
        // needs.
        return lv;
      }
      case NodeKind::Unary: {
        const auto &u = static_cast<const UnaryExpr &>(e);
        WS_ASSERT(u.op == UnOp::Deref, "bad lvalue unary");
        LValue lv;
        lv.type = e.type;
        lv.addr = evalExpr(*u.operand, frame).i;
        return lv;
      }
      default:
        throw RunError("expression is not an lvalue");
    }
}

Value
Interpreter::loadLValue(const LValue &lv, Frame &frame)
{
    if (lv.reg)
        return frame.regs[lv.reg];
    return loadScalar(lv.addr, lv.type);
}

void
Interpreter::storeLValue(const LValue &lv, Value v, Frame &frame)
{
    if (lv.reg) {
        // Normalize representation to the declared type.
        if (lv.type->isDouble() && !v.isFloat)
            v = Value::ofFloat(static_cast<double>(v.i));
        else if (!lv.type->isDouble() && v.isFloat)
            v = Value::ofInt(truncToInt64(v.f));
        if (lv.type->isChar())
            v.i = static_cast<uint8_t>(v.i);
        frame.regs[lv.reg] = v;
        return;
    }
    storeScalar(lv.addr, lv.type, v);
}

Value
Interpreter::evalExpr(const Expr &e, Frame &frame)
{
    budget();
    switch (e.kind()) {
      case NodeKind::IntLit:
        return Value::ofInt(static_cast<const IntLitExpr &>(e).value);
      case NodeKind::FloatLit:
        return Value::ofFloat(static_cast<const FloatLitExpr &>(e).value);
      case NodeKind::StrLit: {
        const auto &s = static_cast<const StrLitExpr &>(e);
        return Value::ofInt(globalAddress(s.poolName));
      }
      case NodeKind::Ident: {
        const auto &id = static_cast<const IdentExpr &>(e);
        if (id.type->isArray()) {
            LValue lv = evalLValue(e, frame);
            return Value::ofInt(lv.addr); // arrays used directly in Index
        }
        LValue lv = evalLValue(e, frame);
        return loadLValue(lv, frame);
      }
      case NodeKind::Cast: {
        const auto &c = static_cast<const CastExpr &>(e);
        // Array decay: produce the array's address.
        if (c.operand->type && c.operand->type->isArray()) {
            if (c.operand->kind() == NodeKind::Ident ||
                    c.operand->kind() == NodeKind::Index) {
                LValue lv = evalLValue(*c.operand, frame);
                WS_ASSERT(!lv.reg, "array in register");
                return Value::ofInt(lv.addr);
            }
            WS_PANIC("array decay of non-lvalue");
        }
        Value v = evalExpr(*c.operand, frame);
        if (c.type->isDouble() && !v.isFloat)
            return Value::ofFloat(static_cast<double>(v.i));
        if (!c.type->isDouble() && v.isFloat)
            return Value::ofInt(truncToInt64(v.f));
        if (c.type->isChar())
            return Value::ofInt(static_cast<uint8_t>(v.i));
        return v;
      }
      case NodeKind::Unary: {
        const auto &u = static_cast<const UnaryExpr &>(e);
        switch (u.op) {
          case UnOp::Neg: {
            Value v = evalExpr(*u.operand, frame);
            return v.isFloat ? Value::ofFloat(-v.f)
                             : Value::ofInt(wrapSub(0, v.i));
          }
          case UnOp::LogNot:
            return Value::ofInt(!evalExpr(*u.operand, frame).truthy());
          case UnOp::BitNot:
            return Value::ofInt(~evalExpr(*u.operand, frame).i);
          case UnOp::Deref: {
            int64_t addr = evalExpr(*u.operand, frame).i;
            return loadScalar(addr, e.type);
          }
          case UnOp::AddrOf: {
            LValue lv = evalLValue(*u.operand, frame);
            if (lv.reg)
                throw RunError("address of register variable");
            return Value::ofInt(lv.addr);
          }
          case UnOp::PreInc:
          case UnOp::PreDec:
          case UnOp::PostInc:
          case UnOp::PostDec: {
            LValue lv = evalLValue(*u.operand, frame);
            Value old = loadLValue(lv, frame);
            int64_t delta = 1;
            if (lv.type->isPointer())
                delta = lv.type->base()->size();
            bool inc = u.op == UnOp::PreInc || u.op == UnOp::PostInc;
            Value nv;
            if (old.isFloat)
                nv = Value::ofFloat(old.f + (inc ? 1.0 : -1.0));
            else
                nv = Value::ofInt(wrapAdd(old.i, inc ? delta : -delta));
            storeLValue(lv, nv, frame);
            bool post = u.op == UnOp::PostInc || u.op == UnOp::PostDec;
            return post ? old : nv;
          }
        }
        WS_PANIC("bad unary op");
      }
      case NodeKind::Binary: {
        const auto &b = static_cast<const BinaryExpr &>(e);
        if (b.op == BinOp::LogAnd) {
            if (!evalExpr(*b.lhs, frame).truthy())
                return Value::ofInt(0);
            return Value::ofInt(evalExpr(*b.rhs, frame).truthy());
        }
        if (b.op == BinOp::LogOr) {
            if (evalExpr(*b.lhs, frame).truthy())
                return Value::ofInt(1);
            return Value::ofInt(evalExpr(*b.rhs, frame).truthy());
        }
        Value l = evalExpr(*b.lhs, frame);
        Value r = evalExpr(*b.rhs, frame);

        // Pointer arithmetic (Sema canonicalized ptr to the left).
        if (b.lhs->type->isPointer() &&
                (b.op == BinOp::Add || b.op == BinOp::Sub)) {
            int64_t esz = b.lhs->type->base()->size();
            if (b.rhs->type->isPointer())
                return Value::ofInt((l.i - r.i) / esz);
            int64_t off = wrapMul(r.i, esz);
            return Value::ofInt(b.op == BinOp::Add ? wrapAdd(l.i, off)
                                                   : wrapSub(l.i, off));
        }

        if (l.isFloat || r.isFloat) {
            double a = l.isFloat ? l.f : static_cast<double>(l.i);
            double c = r.isFloat ? r.f : static_cast<double>(r.i);
            switch (b.op) {
              case BinOp::Add: return Value::ofFloat(a + c);
              case BinOp::Sub: return Value::ofFloat(a - c);
              case BinOp::Mul: return Value::ofFloat(a * c);
              case BinOp::Div:
                if (c == 0.0)
                    throw RunError("floating division by zero");
                return Value::ofFloat(a / c);
              case BinOp::Eq: return Value::ofInt(a == c);
              case BinOp::Ne: return Value::ofInt(a != c);
              case BinOp::Lt: return Value::ofInt(a < c);
              case BinOp::Le: return Value::ofInt(a <= c);
              case BinOp::Gt: return Value::ofInt(a > c);
              case BinOp::Ge: return Value::ofInt(a >= c);
              default:
                throw RunError("invalid float operator");
            }
        }
        switch (b.op) {
          case BinOp::Add: return Value::ofInt(wrapAdd(l.i, r.i));
          case BinOp::Sub: return Value::ofInt(wrapSub(l.i, r.i));
          case BinOp::Mul: return Value::ofInt(wrapMul(l.i, r.i));
          case BinOp::Div:
            if (r.i == 0)
                throw RunError("integer division by zero");
            return Value::ofInt(wrapDiv(l.i, r.i));
          case BinOp::Rem:
            if (r.i == 0)
                throw RunError("integer remainder by zero");
            return Value::ofInt(wrapRem(l.i, r.i));
          case BinOp::Shl: return Value::ofInt(l.i << (r.i & 63));
          case BinOp::Shr: return Value::ofInt(l.i >> (r.i & 63));
          case BinOp::BitAnd: return Value::ofInt(l.i & r.i);
          case BinOp::BitOr: return Value::ofInt(l.i | r.i);
          case BinOp::BitXor: return Value::ofInt(l.i ^ r.i);
          case BinOp::Eq: return Value::ofInt(l.i == r.i);
          case BinOp::Ne: return Value::ofInt(l.i != r.i);
          case BinOp::Lt: return Value::ofInt(l.i < r.i);
          case BinOp::Le: return Value::ofInt(l.i <= r.i);
          case BinOp::Gt: return Value::ofInt(l.i > r.i);
          case BinOp::Ge: return Value::ofInt(l.i >= r.i);
          default:
            WS_PANIC("bad binary op");
        }
      }
      case NodeKind::Assign: {
        const auto &a = static_cast<const AssignExpr &>(e);
        LValue lv = evalLValue(*a.lhs, frame);
        Value r = evalExpr(*a.rhs, frame);
        if (a.op != BinOp::None) {
            Value l = loadLValue(lv, frame);
            if (lv.type->isPointer()) {
                int64_t esz = lv.type->base()->size();
                int64_t off = wrapMul(r.i, esz);
                r = Value::ofInt(a.op == BinOp::Add ? wrapAdd(l.i, off)
                                                    : wrapSub(l.i, off));
            } else if (l.isFloat || r.isFloat) {
                double x = l.isFloat ? l.f : static_cast<double>(l.i);
                double y = r.isFloat ? r.f : static_cast<double>(r.i);
                switch (a.op) {
                  case BinOp::Add: r = Value::ofFloat(x + y); break;
                  case BinOp::Sub: r = Value::ofFloat(x - y); break;
                  case BinOp::Mul: r = Value::ofFloat(x * y); break;
                  case BinOp::Div:
                    if (y == 0.0)
                        throw RunError("floating division by zero");
                    r = Value::ofFloat(x / y);
                    break;
                  default:
                    throw RunError("invalid compound float operator");
                }
            } else {
                switch (a.op) {
                  case BinOp::Add: r = Value::ofInt(wrapAdd(l.i, r.i));
                    break;
                  case BinOp::Sub: r = Value::ofInt(wrapSub(l.i, r.i));
                    break;
                  case BinOp::Mul: r = Value::ofInt(wrapMul(l.i, r.i));
                    break;
                  case BinOp::Div:
                    if (r.i == 0)
                        throw RunError("integer division by zero");
                    r = Value::ofInt(wrapDiv(l.i, r.i));
                    break;
                  case BinOp::Rem:
                    if (r.i == 0)
                        throw RunError("integer remainder by zero");
                    r = Value::ofInt(wrapRem(l.i, r.i));
                    break;
                  default:
                    throw RunError("invalid compound operator");
                }
            }
        }
        storeLValue(lv, r, frame);
        return loadLValue(lv, frame);
      }
      case NodeKind::Cond: {
        const auto &c = static_cast<const CondExpr &>(e);
        if (evalExpr(*c.cond, frame).truthy())
            return evalExpr(*c.thenExpr, frame);
        return evalExpr(*c.elseExpr, frame);
      }
      case NodeKind::Index: {
        LValue lv = evalLValue(e, frame);
        if (e.type->isArray())
            return Value::ofInt(lv.addr); // row of a 2-D array
        return loadScalar(lv.addr, e.type);
      }
      case NodeKind::Call: {
        const auto &c = static_cast<const CallExpr &>(e);
        WS_ASSERT(c.decl && c.decl->body,
                  "call to undefined function " + c.callee);
        std::vector<Value> args;
        args.reserve(c.args.size());
        for (const auto &a : c.args)
            args.push_back(evalExpr(*a, frame));
        return callFunction(*c.decl, std::move(args));
      }
      default:
        WS_PANIC("evalExpr: unexpected node kind");
    }
}

} // namespace wmstream::interp
