#include "frontend/sema.h"

#include "support/convert.h"
#include "support/str.h"

namespace wmstream::frontend {

void
Sema::check(TranslationUnit &unit)
{
    unit_ = &unit;
    pushScope(); // global scope

    // Register functions first so forward calls resolve.
    for (auto &fn : unit.functions) {
        auto [it, inserted] = functions_.emplace(fn->name, fn.get());
        if (!inserted && it->second->body && fn->body) {
            diag_.error(fn->pos(), "redefinition of function " + fn->name);
        } else if (!inserted && fn->body) {
            it->second = fn.get(); // definition supersedes prototype
        }
    }

    for (auto &g : unit.globals) {
        checkVarDecl(*g);
        declare(g.get());
    }

    for (auto &fn : unit.functions)
        if (fn->body)
            checkFunction(*fn);

    popScope();
}

void
Sema::pushScope()
{
    scopes_.emplace_back();
}

void
Sema::popScope()
{
    scopes_.pop_back();
}

void
Sema::declare(Decl *d)
{
    auto &top = scopes_.back();
    if (!top.emplace(d->name, d).second)
        diag_.error(d->pos(), "redeclaration of " + d->name);
}

Decl *
Sema::lookup(const std::string &name)
{
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
        auto f = it->find(name);
        if (f != it->end())
            return f->second;
    }
    return nullptr;
}

void
Sema::checkVarDecl(VarDecl &v)
{
    if (v.type->isVoid() || v.type->isFunction()) {
        diag_.error(v.pos(), "variable " + v.name + " has invalid type " +
                                 v.type->str());
        return;
    }
    // Arrays always live in memory.
    if (v.type->isArray())
        v.addressTaken = true;

    if (v.init.empty())
        return;

    if ((v.init.isString || !v.init.list.empty()) && !v.isGlobal) {
        diag_.error(v.pos(), "initializer lists are only supported on "
                             "global arrays");
        return;
    }
    if (v.init.isString) {
        if (!v.type->isArray() || !v.type->base()->isChar()) {
            diag_.error(v.pos(), "string initializer requires char array");
            return;
        }
        if (static_cast<int64_t>(v.init.stringInit.size()) + 1 >
                v.type->arraySize()) {
            diag_.error(v.pos(), "string initializer too long for " +
                                     v.name);
        }
        return;
    }
    if (!v.init.list.empty()) {
        if (!v.type->isArray()) {
            diag_.error(v.pos(), "initializer list requires array type");
            return;
        }
        if (static_cast<int64_t>(v.init.list.size()) > v.type->arraySize())
            diag_.error(v.pos(), "too many initializers for " + v.name);
        for (auto &e : v.init.list) {
            checkExpr(e);
            if (v.isGlobal && !isConstInit(*e))
                diag_.error(e->pos(), "global initializer must be constant");
            else if (v.isGlobal)
                checkConstDivisors(*e);
            convertTo(e, v.type->base());
        }
        return;
    }
    // Scalar initializer.
    checkExpr(v.init.scalar);
    if (v.isGlobal && !isConstInit(*v.init.scalar))
        diag_.error(v.init.scalar->pos(),
                    "global initializer must be constant");
    else if (v.isGlobal)
        checkConstDivisors(*v.init.scalar);
    convertTo(v.init.scalar, v.type);
}

void
Sema::checkFunction(FuncDecl &fn)
{
    currentFn_ = &fn;
    pushScope();
    for (auto &p : fn.params) {
        if (p->type->isVoid())
            diag_.error(p->pos(), "parameter has void type");
        declare(p.get());
    }
    checkStmt(*fn.body);
    popScope();
    currentFn_ = nullptr;
}

void
Sema::checkStmt(Stmt &s)
{
    switch (s.kind()) {
      case NodeKind::BlockStmt: {
        auto &b = static_cast<BlockStmt &>(s);
        pushScope();
        for (auto &st : b.stmts)
            checkStmt(*st);
        popScope();
        break;
      }
      case NodeKind::DeclStmt: {
        auto &d = static_cast<DeclStmt &>(s);
        for (auto &v : d.vars) {
            checkVarDecl(*v);
            declare(v.get());
        }
        break;
      }
      case NodeKind::ExprStmt:
        checkExpr(static_cast<ExprStmt &>(s).expr);
        break;
      case NodeKind::IfStmt: {
        auto &i = static_cast<IfStmt &>(s);
        checkCondition(i.cond);
        checkStmt(*i.thenStmt);
        if (i.elseStmt)
            checkStmt(*i.elseStmt);
        break;
      }
      case NodeKind::WhileStmt: {
        auto &w = static_cast<WhileStmt &>(s);
        checkCondition(w.cond);
        ++loopDepth_;
        checkStmt(*w.body);
        --loopDepth_;
        break;
      }
      case NodeKind::DoWhileStmt: {
        auto &w = static_cast<DoWhileStmt &>(s);
        ++loopDepth_;
        checkStmt(*w.body);
        --loopDepth_;
        checkCondition(w.cond);
        break;
      }
      case NodeKind::ForStmt: {
        auto &f = static_cast<ForStmt &>(s);
        if (f.init)
            checkExpr(f.init);
        if (f.cond)
            checkCondition(f.cond);
        if (f.step)
            checkExpr(f.step);
        ++loopDepth_;
        checkStmt(*f.body);
        --loopDepth_;
        break;
      }
      case NodeKind::ReturnStmt: {
        auto &r = static_cast<ReturnStmt &>(s);
        TypePtr ret = currentFn_->returnType();
        if (r.value) {
            if (ret->isVoid()) {
                diag_.error(r.pos(), "return with value in void function");
            } else {
                checkExpr(r.value);
                convertTo(r.value, ret);
            }
        } else if (!ret->isVoid()) {
            diag_.error(r.pos(), "return without value in non-void "
                                 "function");
        }
        break;
      }
      case NodeKind::BreakStmt:
        // The expander asserts on loopless break/continue; reject
        // them here so malformed input gets a positioned diagnostic.
        if (loopDepth_ == 0)
            diag_.error(s.pos(), "break statement outside a loop");
        break;
      case NodeKind::ContinueStmt:
        if (loopDepth_ == 0)
            diag_.error(s.pos(), "continue statement outside a loop");
        break;
      default:
        WS_PANIC("checkStmt: unexpected node kind");
    }
}

void
Sema::convertTo(ExprUP &e, const TypePtr &to)
{
    decay(e);
    const TypePtr &from = e->type;
    if (Type::equal(from, to))
        return;
    // Integral types interconvert freely; int<->double via cast node;
    // pointer<->pointer allowed (mini-C is permissive, like K&R C).
    bool ok = (from->isArithmetic() && to->isArithmetic()) ||
              (from->isPointer() && to->isPointer()) ||
              (from->isIntegral() && to->isPointer()) ||
              (from->isPointer() && to->isIntegral());
    if (!ok) {
        diag_.error(e->pos(), "cannot convert " + from->str() + " to " +
                                  to->str());
        return;
    }
    e = std::make_unique<CastExpr>(e->pos(), to, std::move(e));
}

void
Sema::decay(ExprUP &e)
{
    if (e->type && e->type->isArray()) {
        TypePtr ptr = Type::pointerTo(e->type->base());
        e = std::make_unique<CastExpr>(e->pos(), ptr, std::move(e));
    }
}

TypePtr
Sema::arithConvert(ExprUP &l, ExprUP &r, SourcePos pos)
{
    decay(l);
    decay(r);
    if (!l->type->isArithmetic() || !r->type->isArithmetic()) {
        diag_.error(pos, "arithmetic operator requires arithmetic "
                         "operands");
        return Type::intTy();
    }
    if (l->type->isDouble() || r->type->isDouble()) {
        convertTo(l, Type::doubleTy());
        convertTo(r, Type::doubleTy());
        return Type::doubleTy();
    }
    // char promotes to int implicitly (values are int-width anyway).
    return Type::intTy();
}

bool
Sema::isLValue(const Expr &e) const
{
    switch (e.kind()) {
      case NodeKind::Ident: {
        const auto &id = static_cast<const IdentExpr &>(e);
        return id.decl && !id.decl->type->isArray() &&
               !id.decl->type->isFunction();
      }
      case NodeKind::Index:
        return true;
      case NodeKind::Unary:
        return static_cast<const UnaryExpr &>(e).op == UnOp::Deref;
      default:
        return false;
    }
}

bool
Sema::isConstInit(const Expr &e) const
{
    switch (e.kind()) {
      case NodeKind::IntLit:
      case NodeKind::FloatLit:
      case NodeKind::StrLit:
        return true;
      case NodeKind::Unary: {
        const auto &u = static_cast<const UnaryExpr &>(e);
        return u.op == UnOp::Neg && isConstInit(*u.operand);
      }
      case NodeKind::Cast:
        return isConstInit(*static_cast<const CastExpr &>(e).operand);
      case NodeKind::Binary: {
        const auto &b = static_cast<const BinaryExpr &>(e);
        return isConstInit(*b.lhs) && isConstInit(*b.rhs);
      }
      default:
        return false;
    }
}

namespace {

/** A constant value during initializer divisor checking. */
struct CVal
{
    bool isFloat = false;
    int64_t i = 0;
    double f = 0.0;
};

/**
 * Best-effort constant evaluation mirroring the expander's folder
 * (interp::evalConstExpr, which the frontend cannot link against).
 * Returns false for anything unknown — including division by zero,
 * which the caller diagnoses separately.
 */
bool
evalConst(const Expr &e, CVal &out)
{
    switch (e.kind()) {
      case NodeKind::IntLit:
        out = {false, static_cast<const IntLitExpr &>(e).value, 0.0};
        return true;
      case NodeKind::FloatLit:
        out = {true, 0, static_cast<const FloatLitExpr &>(e).value};
        return true;
      case NodeKind::Unary: {
        const auto &u = static_cast<const UnaryExpr &>(e);
        if (u.op != UnOp::Neg || !evalConst(*u.operand, out))
            return false;
        if (out.isFloat)
            out.f = -out.f;
        else
            out.i = static_cast<int64_t>(0 - static_cast<uint64_t>(out.i));
        return true;
      }
      case NodeKind::Cast: {
        const auto &c = static_cast<const CastExpr &>(e);
        if (!evalConst(*c.operand, out))
            return false;
        if (c.type->isDouble() && !out.isFloat)
            out = {true, 0, static_cast<double>(out.i)};
        else if (!c.type->isDouble() && out.isFloat)
            out = {false, truncToInt64(out.f), 0.0};
        return true;
      }
      case NodeKind::Binary: {
        const auto &b = static_cast<const BinaryExpr &>(e);
        CVal l, r;
        if (!evalConst(*b.lhs, l) || !evalConst(*b.rhs, r))
            return false;
        if (l.isFloat || r.isFloat) {
            double a = l.isFloat ? l.f : static_cast<double>(l.i);
            double c = r.isFloat ? r.f : static_cast<double>(r.i);
            switch (b.op) {
              case BinOp::Add: out = {true, 0, a + c}; return true;
              case BinOp::Sub: out = {true, 0, a - c}; return true;
              case BinOp::Mul: out = {true, 0, a * c}; return true;
              default: return false;
            }
        }
        auto u = [](int64_t x) { return static_cast<uint64_t>(x); };
        int64_t a = l.i, c = r.i;
        switch (b.op) {
          case BinOp::Add:
            out = {false, static_cast<int64_t>(u(a) + u(c)), 0.0};
            return true;
          case BinOp::Sub:
            out = {false, static_cast<int64_t>(u(a) - u(c)), 0.0};
            return true;
          case BinOp::Mul:
            out = {false, static_cast<int64_t>(u(a) * u(c)), 0.0};
            return true;
          case BinOp::Div:
            if (c == 0)
                return false;
            // INT64_MIN / -1 wraps, as on the machines (DESIGN §7.9).
            out = {false, c == -1 ? static_cast<int64_t>(0 - u(a)) : a / c,
                   0.0};
            return true;
          case BinOp::Rem:
            if (c == 0)
                return false;
            out = {false, c == -1 ? 0 : a % c, 0.0};
            return true;
          case BinOp::Shl: out = {false, a << (c & 63), 0.0}; return true;
          case BinOp::Shr: out = {false, a >> (c & 63), 0.0}; return true;
          case BinOp::BitAnd: out = {false, a & c, 0.0}; return true;
          case BinOp::BitOr: out = {false, a | c, 0.0}; return true;
          case BinOp::BitXor: out = {false, a ^ c, 0.0}; return true;
          case BinOp::Eq: out = {false, a == c, 0.0}; return true;
          case BinOp::Ne: out = {false, a != c, 0.0}; return true;
          case BinOp::Lt: out = {false, a < c, 0.0}; return true;
          case BinOp::Le: out = {false, a <= c, 0.0}; return true;
          case BinOp::Gt: out = {false, a > c, 0.0}; return true;
          case BinOp::Ge: out = {false, a >= c, 0.0}; return true;
          default:
            return false;
        }
      }
      default:
        return false;
    }
}

} // anonymous namespace

void
Sema::checkConstDivisors(const Expr &e)
{
    switch (e.kind()) {
      case NodeKind::Unary:
        checkConstDivisors(*static_cast<const UnaryExpr &>(e).operand);
        break;
      case NodeKind::Cast:
        checkConstDivisors(*static_cast<const CastExpr &>(e).operand);
        break;
      case NodeKind::Binary: {
        const auto &b = static_cast<const BinaryExpr &>(e);
        checkConstDivisors(*b.lhs);
        checkConstDivisors(*b.rhs);
        if (b.op == BinOp::Div || b.op == BinOp::Rem) {
            CVal v;
            if (evalConst(*b.rhs, v) && !v.isFloat && v.i == 0)
                diag_.error(b.pos(), "division by zero in constant "
                                     "initializer");
        }
        break;
      }
      default:
        break;
    }
}

std::string
Sema::internString(const std::string &value)
{
    for (const auto &[name, bytes] : unit_->stringPool)
        if (bytes.size() == value.size() + 1 &&
                bytes.compare(0, value.size(), value) == 0) {
            return name;
        }
    std::string name = strFormat("__str%d", nextString_++);
    unit_->stringPool.emplace_back(name, value + '\0');
    return name;
}

void
Sema::checkCondition(ExprUP &e)
{
    checkExpr(e);
    decay(e);
    if (!e->type->isScalar())
        diag_.error(e->pos(), "condition must have scalar type");
}

void
Sema::checkExpr(ExprUP &e)
{
    switch (e->kind()) {
      case NodeKind::IntLit:
        e->type = Type::intTy();
        break;
      case NodeKind::FloatLit:
        e->type = Type::doubleTy();
        break;
      case NodeKind::StrLit: {
        auto &s = static_cast<StrLitExpr &>(*e);
        s.poolName = internString(s.value);
        s.type = Type::pointerTo(Type::charTy());
        break;
      }
      case NodeKind::Ident: {
        auto &id = static_cast<IdentExpr &>(*e);
        Decl *d = lookup(id.name);
        if (!d) {
            diag_.error(id.pos(), "use of undeclared identifier " +
                                      id.name);
            id.type = Type::intTy();
            break;
        }
        id.decl = d;
        id.type = d->type;
        break;
      }
      case NodeKind::Unary: {
        auto &u = static_cast<UnaryExpr &>(*e);
        checkExpr(u.operand);
        switch (u.op) {
          case UnOp::Neg:
            decay(u.operand);
            if (!u.operand->type->isArithmetic())
                diag_.error(u.pos(), "negation requires arithmetic type");
            u.type = u.operand->type->isDouble() ? Type::doubleTy()
                                                 : Type::intTy();
            break;
          case UnOp::LogNot:
            decay(u.operand);
            if (!u.operand->type->isScalar())
                diag_.error(u.pos(), "! requires scalar type");
            u.type = Type::intTy();
            break;
          case UnOp::BitNot:
            decay(u.operand);
            if (!u.operand->type->isIntegral())
                diag_.error(u.pos(), "~ requires integral type");
            u.type = Type::intTy();
            break;
          case UnOp::Deref:
            decay(u.operand);
            if (!u.operand->type->isPointer()) {
                diag_.error(u.pos(), "cannot dereference " +
                                         u.operand->type->str());
                u.type = Type::intTy();
            } else {
                u.type = u.operand->type->base();
            }
            break;
          case UnOp::AddrOf: {
            if (!isLValue(*u.operand) &&
                    !(u.operand->type && u.operand->type->isArray())) {
                diag_.error(u.pos(), "cannot take address of rvalue");
            }
            // Mark the underlying variable as address-taken.
            Expr *base = u.operand.get();
            while (base->kind() == NodeKind::Index)
                base = static_cast<IndexExpr *>(base)->base.get();
            if (base->kind() == NodeKind::Ident) {
                Decl *d = static_cast<IdentExpr *>(base)->decl;
                if (auto *v = dynamic_cast<VarDecl *>(d))
                    v->addressTaken = true;
                else if (auto *p = dynamic_cast<ParamDecl *>(d))
                    p->addressTaken = true;
            }
            u.type = Type::pointerTo(u.operand->type);
            break;
          }
          case UnOp::PreInc:
          case UnOp::PreDec:
          case UnOp::PostInc:
          case UnOp::PostDec:
            if (!isLValue(*u.operand))
                diag_.error(u.pos(), "++/-- requires an lvalue");
            if (!u.operand->type->isIntegral() &&
                    !u.operand->type->isPointer() &&
                    !u.operand->type->isDouble()) {
                diag_.error(u.pos(), "++/-- requires scalar type");
            }
            u.type = u.operand->type;
            break;
        }
        break;
      }
      case NodeKind::Binary: {
        auto &b = static_cast<BinaryExpr &>(*e);
        checkExpr(b.lhs);
        checkExpr(b.rhs);
        switch (b.op) {
          case BinOp::Add:
          case BinOp::Sub: {
            decay(b.lhs);
            decay(b.rhs);
            bool lp = b.lhs->type->isPointer();
            bool rp = b.rhs->type->isPointer();
            if (lp && rp) {
                if (b.op != BinOp::Sub)
                    diag_.error(b.pos(), "cannot add two pointers");
                b.type = Type::intTy();
            } else if (lp || rp) {
                if (rp && b.op == BinOp::Sub)
                    diag_.error(b.pos(), "cannot subtract pointer from "
                                         "integer");
                if (rp)
                    std::swap(b.lhs, b.rhs); // canonical: ptr on the left
                if (!b.rhs->type->isIntegral())
                    diag_.error(b.pos(), "pointer offset must be integral");
                b.type = b.lhs->type;
            } else {
                b.type = arithConvert(b.lhs, b.rhs, b.pos());
            }
            break;
          }
          case BinOp::Mul:
          case BinOp::Div:
            b.type = arithConvert(b.lhs, b.rhs, b.pos());
            break;
          case BinOp::Rem:
          case BinOp::Shl:
          case BinOp::Shr:
          case BinOp::BitAnd:
          case BinOp::BitOr:
          case BinOp::BitXor:
            decay(b.lhs);
            decay(b.rhs);
            if (!b.lhs->type->isIntegral() || !b.rhs->type->isIntegral())
                diag_.error(b.pos(), "operator requires integral operands");
            b.type = Type::intTy();
            break;
          case BinOp::Eq:
          case BinOp::Ne:
          case BinOp::Lt:
          case BinOp::Le:
          case BinOp::Gt:
          case BinOp::Ge: {
            decay(b.lhs);
            decay(b.rhs);
            if (b.lhs->type->isPointer() || b.rhs->type->isPointer()) {
                // pointer comparison; allow pointer vs integral 0
            } else {
                arithConvert(b.lhs, b.rhs, b.pos());
            }
            b.type = Type::intTy();
            break;
          }
          case BinOp::LogAnd:
          case BinOp::LogOr:
            decay(b.lhs);
            decay(b.rhs);
            if (!b.lhs->type->isScalar() || !b.rhs->type->isScalar())
                diag_.error(b.pos(), "logical operator requires scalar "
                                     "operands");
            b.type = Type::intTy();
            break;
          case BinOp::None:
            WS_PANIC("BinOp::None in BinaryExpr");
        }
        break;
      }
      case NodeKind::Assign: {
        auto &a = static_cast<AssignExpr &>(*e);
        checkExpr(a.lhs);
        checkExpr(a.rhs);
        if (!isLValue(*a.lhs)) {
            diag_.error(a.pos(), "assignment target is not an lvalue");
            a.type = Type::intTy();
            break;
        }
        if (a.op != BinOp::None) {
            // Compound assignment: type-check as lhs op rhs.
            decay(a.rhs);
            if (a.lhs->type->isPointer()) {
                if ((a.op != BinOp::Add && a.op != BinOp::Sub) ||
                        !a.rhs->type->isIntegral()) {
                    diag_.error(a.pos(), "invalid compound assignment on "
                                         "pointer");
                }
            } else if (a.lhs->type->isDouble() ||
                       a.rhs->type->isDouble()) {
                if (a.op == BinOp::Rem || a.op == BinOp::Shl ||
                        a.op == BinOp::Shr) {
                    diag_.error(a.pos(), "invalid operator for double");
                }
                convertTo(a.rhs, Type::doubleTy());
            }
        } else {
            convertTo(a.rhs, a.lhs->type);
        }
        a.type = a.lhs->type;
        break;
      }
      case NodeKind::Cond: {
        auto &c = static_cast<CondExpr &>(*e);
        checkCondition(c.cond);
        checkExpr(c.thenExpr);
        checkExpr(c.elseExpr);
        decay(c.thenExpr);
        decay(c.elseExpr);
        if (c.thenExpr->type->isDouble() || c.elseExpr->type->isDouble()) {
            convertTo(c.thenExpr, Type::doubleTy());
            convertTo(c.elseExpr, Type::doubleTy());
            c.type = Type::doubleTy();
        } else if (c.thenExpr->type->isPointer()) {
            c.type = c.thenExpr->type;
        } else {
            c.type = Type::intTy();
        }
        break;
      }
      case NodeKind::Index: {
        auto &ix = static_cast<IndexExpr &>(*e);
        checkExpr(ix.base);
        checkExpr(ix.index);
        if (!ix.index->type->isIntegral())
            diag_.error(ix.pos(), "array index must be integral");
        TypePtr bt = ix.base->type;
        if (bt->isArray()) {
            ix.type = bt->base();
        } else if (bt->isPointer()) {
            ix.type = bt->base();
        } else {
            diag_.error(ix.pos(), "cannot index " + bt->str());
            ix.type = Type::intTy();
        }
        break;
      }
      case NodeKind::Call: {
        auto &c = static_cast<CallExpr &>(*e);
        auto it = functions_.find(c.callee);
        if (it == functions_.end()) {
            diag_.error(c.pos(), "call to undeclared function " + c.callee);
            c.type = Type::intTy();
            for (auto &a : c.args)
                checkExpr(a);
            break;
        }
        c.decl = it->second;
        const auto &params = c.decl->type->params();
        if (c.args.size() != params.size()) {
            diag_.error(c.pos(),
                        strFormat("%s expects %zu arguments, got %zu",
                                  c.callee.c_str(), params.size(),
                                  c.args.size()));
        }
        for (size_t i = 0; i < c.args.size(); ++i) {
            checkExpr(c.args[i]);
            if (i < params.size())
                convertTo(c.args[i], params[i]);
            else
                decay(c.args[i]);
        }
        c.type = c.decl->returnType();
        break;
      }
      case NodeKind::Cast: {
        auto &c = static_cast<CastExpr &>(*e);
        checkExpr(c.operand);
        break;
      }
      default:
        WS_PANIC("checkExpr: unexpected node kind");
    }
}

} // namespace wmstream::frontend
