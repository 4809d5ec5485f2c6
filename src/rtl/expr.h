/**
 * @file
 * RTL expressions: trees over the hardware's storage cells.
 *
 * Following Benitez & Davidson, the optimizer operates on register
 * transfer lists (RTLs) that "describe the effect of machine
 * instructions" and "have the form of conventional expressions and
 * assignments over the hardware's storage cells". Any particular RTL is
 * machine specific, but the *form* is machine independent, which is what
 * lets the recurrence and streaming passes work on several targets.
 *
 * Expressions are immutable and shared (shared_ptr const trees); all
 * rewriting builds new trees through the factory functions, which also
 * perform algebraic simplification and constant folding so that address
 * expressions stay in a canonical sum-of-products shape the induction
 * variable analysis can recognize.
 */

#ifndef WMSTREAM_RTL_EXPR_H
#define WMSTREAM_RTL_EXPR_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace wmstream::rtl {

/** Width and interpretation of a storage cell or value. */
enum class DataType : uint8_t { I8, I16, I32, I64, F32, F64 };

/** Size in bytes of a value of type @p t. */
int dataTypeSize(DataType t);

/** True for F32/F64. */
bool isFloatType(DataType t);

/** Printable name ("i32", "f64", ...). */
const char *dataTypeName(DataType t);

/**
 * Register files.
 *
 * Int/Flt are the architectural files (WM: r0..r31 / f0..f31; the
 * scalar target uses the same names). VInt/VFlt are the unbounded
 * virtual files the code expander targets; register assignment maps
 * them onto the architectural files. CC is the condition-code file:
 * on WM a compare enqueues into the execution unit's condition-code
 * FIFO; cell 0 is the integer unit's FIFO and cell 1 the float unit's.
 */
enum class RegFile : uint8_t { Int, Flt, VInt, VFlt, CC };

/** Number of RegFile values (dense tables keep one slot per file). */
constexpr size_t kNumRegFiles = 5;

/** True for the two virtual files. */
bool isVirtualFile(RegFile f);

/** Printable prefix ("r", "f", "vr", "vf", "cc"). */
const char *regFilePrefix(RegFile f);

/** RTL operators, shared by all targets. */
enum class Op : uint8_t {
    Add, Sub, Mul, Div, Rem,
    And, Or, Xor, Shl, Shr, Sar,
    Eq, Ne, Lt, Le, Gt, Ge,
    Neg, Not, CvtIF, CvtFI, CvtWiden,
};

/** True for the six relational operators. */
bool isRelationalOp(Op op);

/** Printable operator spelling. */
const char *opName(Op op);

/** Relational operator with operands swapped (a < b  ==  b > a). */
Op swapRelational(Op op);

/** Relational operator negated (a < b  ==  !(a >= b)). */
Op negateRelational(Op op);

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/**
 * One RTL expression node.
 *
 * Kinds:
 *  - Const: integer or floating literal;
 *  - Sym:   link-time address of a global symbol plus byte offset;
 *  - Reg:   a register cell (file, index);
 *  - Mem:   the memory cell at an address expression;
 *  - Bin:   binary operator over two subtrees;
 *  - Un:    unary operator over one subtree.
 */
class Expr
{
  public:
    enum class Kind : uint8_t { Const, Sym, Reg, Mem, Bin, Un };

    Kind kind() const { return kind_; }
    DataType type() const { return type_; }

    // Const accessors.
    int64_t ival() const { return ival_; }
    double fval() const { return fval_; }

    // Sym accessors.
    const std::string &symbol() const { return sym_; }
    int64_t symOffset() const { return ival_; }

    // Reg accessors.
    RegFile regFile() const { return file_; }
    int regIndex() const { return static_cast<int>(ival_); }

    // Mem accessor.
    const ExprPtr &addr() const { return lhs_; }

    // Bin/Un accessors.
    Op op() const { return op_; }
    const ExprPtr &lhs() const { return lhs_; }
    const ExprPtr &rhs() const { return rhs_; }

    bool isConst() const { return kind_ == Kind::Const; }
    bool isIntConst(int64_t v) const;
    bool isReg() const { return kind_ == Kind::Reg; }
    bool isReg(RegFile f, int idx) const;
    bool isMem() const { return kind_ == Kind::Mem; }
    bool isSym() const { return kind_ == Kind::Sym; }

    /** Render in the paper's RTL notation, e.g. "(r[22]<<3)+r[24]". */
    std::string str() const;

  private:
    friend ExprPtr makeConst(int64_t, DataType);
    friend ExprPtr makeFConst(double, DataType);
    friend ExprPtr makeSym(const std::string &, int64_t);
    friend ExprPtr makeReg(RegFile, int, DataType);
    friend ExprPtr makeMem(ExprPtr, DataType);
    friend ExprPtr makeBinRaw(Op, ExprPtr, ExprPtr, DataType);
    friend ExprPtr makeUnRaw(Op, ExprPtr, DataType);

    Kind kind_;
    DataType type_ = DataType::I32;
    Op op_ = Op::Add;
    RegFile file_ = RegFile::Int;
    int64_t ival_ = 0;     // Const value, Sym offset, Reg index
    double fval_ = 0.0;    // Const float value
    std::string sym_;
    ExprPtr lhs_;          // Mem address, Bin lhs, Un operand
    ExprPtr rhs_;          // Bin rhs
};

/** @name Factories (with folding in makeBin/makeUn) */
/// @{
ExprPtr makeConst(int64_t v, DataType t = DataType::I64);
ExprPtr makeFConst(double v, DataType t = DataType::F64);
ExprPtr makeSym(const std::string &name, int64_t offset = 0);
ExprPtr makeReg(RegFile file, int index, DataType t);
ExprPtr makeMem(ExprPtr addr, DataType t);
/** Build a binary node with constant folding and canonicalization. */
ExprPtr makeBin(Op op, ExprPtr l, ExprPtr r);
/** Build a unary node with constant folding. */
ExprPtr makeUn(Op op, ExprPtr x, DataType result);
/** Build nodes verbatim, no folding (used by tests and parsers). */
ExprPtr makeBinRaw(Op op, ExprPtr l, ExprPtr r, DataType t);
ExprPtr makeUnRaw(Op op, ExprPtr x, DataType t);
/// @}

/** Structural equality. */
bool exprEqual(const ExprPtr &a, const ExprPtr &b);

/** Substitute every occurrence of register (file,index) with @p repl. */
ExprPtr substReg(const ExprPtr &e, RegFile file, int index,
                 const ExprPtr &repl);

/**
 * Apply @p fn to every node of @p e (pre-order). A template so the
 * walk inlines the callback and allocates nothing.
 */
template <class F>
void
forEachNode(const Expr *e, F &&fn)
{
    while (e) {
        fn(*e);
        switch (e->kind()) {
          case Expr::Kind::Mem:
          case Expr::Kind::Un:
            e = e->lhs().get();
            break;
          case Expr::Kind::Bin:
            forEachNode(e->lhs().get(), fn);
            e = e->rhs().get();
            break;
          default:
            return;
        }
    }
}

template <class F>
void
forEachNode(const ExprPtr &e, F &&fn)
{
    forEachNode(e.get(), fn);
}

/**
 * Apply @p fn to every register node of @p e, in evaluation order and
 * with duplicates: `(r1+r1)*r2` visits r1, r1, r2.
 */
template <class F>
void
forEachReg(const ExprPtr &e, F &&fn)
{
    forEachNode(e.get(), [&](const Expr &n) {
        if (n.isReg())
            fn(n);
    });
}

/** True if register (file,index) occurs anywhere in @p e. */
bool usesReg(const ExprPtr &e, RegFile file, int index);

/** True if a Mem node occurs anywhere in @p e. */
bool containsMem(const ExprPtr &e);

/**
 * True if @p e is a WM data-FIFO register: r0/r1 or f0/f1. Reading one
 * dequeues an element and writing one enqueues, so such an operand is
 * never a plain value.
 */
bool isDataFifoReg(const Expr &e);

/** True if a data-FIFO register occurs anywhere in @p e. */
bool readsDataFifo(const ExprPtr &e);

} // namespace wmstream::rtl

#endif // WMSTREAM_RTL_EXPR_H
