/**
 * @file
 * The execution core that both machine models run.
 *
 * The WM cycle simulator (wmsim) and the scalar timing model (timing)
 * execute the same compiled RTL. What they share lives here, once:
 *  - Executable: the program decoded for execution, once, at load
 *    time. Its code is one flat instruction array with every jump,
 *    branch and call target resolved to an index. Every operand
 *    expression is lowered to a range of one postorder operand-code
 *    array, with global symbols resolved to addresses, so a run never
 *    walks an RTL tree. It also holds the flat memory image, sized to
 *    the program (rtl/image.h), with the globals loaded and
 *    bounds-checked typed access;
 *  - applyBin/applyUn: the RTL operator rules, which the constant
 *    folder (makeBin) uses too, so a folded constant is the value the
 *    machines would compute;
 *  - Executable::eval: the operand-code evaluator, inline so that it
 *    stays in the machines' run loops. Register cells are read through
 *    a hook, which is where wmsim pops its FIFOs.
 * Each machine keeps its own register writes, timing and
 * instrumentation.
 */

#ifndef WMSTREAM_RTL_EXEC_H
#define WMSTREAM_RTL_EXEC_H

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "rtl/program.h"
#include "support/convert.h"

namespace wmstream::rtl {

/** A run-time value: a register, FIFO entry or memory datum. */
struct Val
{
    bool isFloat = false;
    int64_t i = 0;
    double f = 0.0;
};

/** A fault of the executing program: bad address, divide by zero, ... */
struct ExecError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Apply binary operator @p op; @p out may alias an operand. A float
 * operand makes the operation floating point; relational operators
 * yield an integer 0 or 1.
 * Integer arithmetic wraps (two's complement), INT64_MIN / -1 is
 * INT64_MIN with remainder 0, and shift counts are taken mod 64.
 * @return nullptr with the result in @p out, or the run-time error:
 *         a zero divisor, or an operator with no rule for the operands.
 */
inline const char *
applyBin(Op op, const Val &l, const Val &r, Val &out)
{
    if (l.isFloat || r.isFloat) {
        double a = l.isFloat ? l.f : static_cast<double>(l.i);
        double b = r.isFloat ? r.f : static_cast<double>(r.i);
        switch (op) {
          case Op::Add: out = Val{true, 0, a + b}; return nullptr;
          case Op::Sub: out = Val{true, 0, a - b}; return nullptr;
          case Op::Mul: out = Val{true, 0, a * b}; return nullptr;
          case Op::Div:
            if (b == 0.0)
                return "floating divide by zero";
            out = Val{true, 0, a / b};
            return nullptr;
          case Op::Eq: out = Val{false, a == b, 0.0}; return nullptr;
          case Op::Ne: out = Val{false, a != b, 0.0}; return nullptr;
          case Op::Lt: out = Val{false, a < b, 0.0}; return nullptr;
          case Op::Le: out = Val{false, a <= b, 0.0}; return nullptr;
          case Op::Gt: out = Val{false, a > b, 0.0}; return nullptr;
          case Op::Ge: out = Val{false, a >= b, 0.0}; return nullptr;
          default: return "bad float operator in RTL";
        }
    }
    int64_t a = l.i, b = r.i;
    uint64_t ua = static_cast<uint64_t>(a), ub = static_cast<uint64_t>(b);
    out = Val{};
    switch (op) {
      case Op::Add: out.i = static_cast<int64_t>(ua + ub); break;
      case Op::Sub: out.i = static_cast<int64_t>(ua - ub); break;
      case Op::Mul: out.i = static_cast<int64_t>(ua * ub); break;
      case Op::Div:
        if (b == 0)
            return "integer divide by zero";
        out.i = b == -1 ? static_cast<int64_t>(0 - ua) : a / b;
        break;
      case Op::Rem:
        if (b == 0)
            return "integer remainder by zero";
        out.i = b == -1 ? 0 : a % b;
        break;
      case Op::And: out.i = a & b; break;
      case Op::Or: out.i = a | b; break;
      case Op::Xor: out.i = a ^ b; break;
      case Op::Shl: out.i = static_cast<int64_t>(ua << (b & 63)); break;
      case Op::Shr: out.i = static_cast<int64_t>(ua >> (b & 63)); break;
      case Op::Sar: out.i = a >> (b & 63); break;
      case Op::Eq: out.i = a == b; break;
      case Op::Ne: out.i = a != b; break;
      case Op::Lt: out.i = a < b; break;
      case Op::Le: out.i = a <= b; break;
      case Op::Gt: out.i = a > b; break;
      case Op::Ge: out.i = a >= b; break;
      default: return "bad integer operator in RTL";
    }
    return nullptr;
}

/**
 * Apply unary operator @p op (integer negation wraps); @p out may
 * alias @p x.
 * @return nullptr with the result in @p out, or the run-time error.
 */
inline const char *
applyUn(Op op, const Val &x, Val &out)
{
    switch (op) {
      case Op::Neg:
        out = x.isFloat ? Val{true, 0, -x.f}
                        : Val{false,
                              static_cast<int64_t>(
                                  0 - static_cast<uint64_t>(x.i)),
                              0.0};
        return nullptr;
      case Op::Not: out = Val{false, ~x.i, 0.0}; return nullptr;
      case Op::CvtIF:
        out = Val{true, 0, static_cast<double>(x.i)};
        return nullptr;
      case Op::CvtFI:
        out = Val{false, truncToInt64(x.f), 0.0};
        return nullptr;
      case Op::CvtWiden: out = x; return nullptr;
      default: return "bad unary operator in RTL";
    }
}

/** The value of a Const node. */
inline Val
constVal(const Expr &c)
{
    if (isFloatType(c.type()))
        return Val{true, 0, c.fval()};
    return Val{false, c.ival(), 0.0};
}

/**
 * One cell of the operand code. An operand is its expression tree in
 * postorder: leaves push a value, Mem/Un replace the top of the stack
 * and Bin replaces the top two with one.
 */
struct OperandCell
{
    enum class Kind : uint8_t {
        Int,    ///< push i (a Sym is resolved to one at load time)
        Flt,    ///< push f
        Reg,    ///< push the register (file, i) through the read hook
        Mem,    ///< replace the address on top with the datum of type
        Un,     ///< apply op to the top
        Bin,    ///< apply op to the top two
        BadSym, ///< a Sym naming no global: an error if executed
    };
    Kind kind = Kind::Int;
    DataType type = DataType::I64;
    Op op = Op::Add;
    RegFile file = RegFile::Int;
    union {
        int64_t i = 0;
        double f;
        const Expr *sym;
    };
};

/** One operand: cells [begin, end) of Executable::operands. */
struct Operand
{
    uint32_t begin = 0, end = 0;

    /** True when the instruction has no such operand. */
    bool empty() const { return begin == end; }
};

/** One instruction of the decoded program. */
struct DecodedInst
{
    const Inst *inst;
    /**
     * Jump, CondJump, JumpStream: index of the target label's first
     * instruction in the same function; Call: the callee's entry.
     * -1 when there is no such target: the error is raised only if
     * the instruction executes.
     */
    int64_t target = -1;
    /** The instruction's expression fields, lowered. */
    Operand src, addr, count, vecSrc2;
};

/**
 * A laid-out program ready to run: decoded code plus memory image.
 * The program must outlive it.
 */
class Executable
{
  public:
    /**
     * Decode @p prog, which must be laid out, and load its globals
     * into a zeroed image: the stack reservation plus the globals,
     * rounded up to a page (rtl/image.h).
     */
    explicit Executable(const Program &prog);

    std::vector<DecodedInst> code;
    /** The operand code of every instruction, in code order. */
    std::vector<OperandCell> operands;
    std::vector<uint8_t> mem;
    /** Index of main's first instruction. */
    int64_t mainEntry = -1;
    /**
     * Why the program cannot start (a global that does not fit the
     * image, or no main), or empty. A machine's run reports it.
     */
    std::string startError;

    /** The instruction at @p pc; throws ExecError if out of range. */
    const DecodedInst &
    fetch(int64_t pc) const
    {
        if (pc < 0 || pc >= static_cast<int64_t>(code.size()))
            throw ExecError("PC out of range");
        return code[pc];
    }

    /** Resolved target of the branch or call at @p pc, or throw. */
    int64_t
    target(int64_t pc) const
    {
        int64_t t = code[pc].target;
        if (t < 0)
            unknownTarget(*code[pc].inst);
        return t;
    }

    /**
     * Throw unless [addr, addr + size) lies inside the image. Below
     * address 0 is below the stack: a stack overflow.
     */
    void
    checkAddr(int64_t addr, int size) const
    {
        if (addr < 0 || addr + size > static_cast<int64_t>(mem.size()))
            outOfBounds(addr);
    }

    /**
     * Read a @p t at @p addr: exactly dataTypeSize(t) bytes. Narrow
     * integers are zero-extended; F32 widens to double.
     */
    Val
    read(int64_t addr, DataType t) const
    {
        Val v;
        switch (t) {
          case DataType::I8: v.i = load<uint8_t>(addr); break;
          case DataType::I16: v.i = load<uint16_t>(addr); break;
          case DataType::I32: v.i = load<uint32_t>(addr); break;
          case DataType::I64: v.i = load<int64_t>(addr); break;
          case DataType::F32:
            v.isFloat = true;
            v.f = load<float>(addr);
            break;
          case DataType::F64:
            v.isFloat = true;
            v.f = load<double>(addr);
            break;
        }
        return v;
    }

    /**
     * Write @p v as a @p t at @p addr: exactly dataTypeSize(t) bytes,
     * converting between integer and float as the type demands.
     */
    void
    write(int64_t addr, DataType t, const Val &v)
    {
        if (isFloatType(t)) {
            double d = v.isFloat ? v.f : static_cast<double>(v.i);
            if (t == DataType::F32)
                store(addr, static_cast<float>(d));
            else
                store(addr, d);
            return;
        }
        int64_t x = v.isFloat ? truncToInt64(v.f) : v.i;
        switch (t) {
          case DataType::I8: store(addr, static_cast<uint8_t>(x)); break;
          case DataType::I16: store(addr, static_cast<uint16_t>(x)); break;
          case DataType::I32: store(addr, static_cast<uint32_t>(x)); break;
          default: store(addr, x); break;
        }
    }

    /**
     * Evaluate operand @p o, which must not be empty. Register cells
     * are read through @p readReg(RegFile file, int index) -> Val in
     * the order of a left-to-right, depth-first walk of the tree, so a
     * machine with FIFO registers pops them in that order.
     */
    template <class ReadReg>
    Val
    eval(Operand o, ReadReg &&readReg)
    {
        using K = OperandCell::Kind;
        Val *sp = stack_.data();
        for (const OperandCell *c = &operands[o.begin],
                               *e = c + (o.end - o.begin);
             c != e; ++c) {
            const char *err = nullptr;
            switch (c->kind) {
              case K::Int: *sp++ = Val{false, c->i, 0.0}; continue;
              case K::Flt: *sp++ = Val{true, 0, c->f}; continue;
              case K::Reg:
                *sp++ = readReg(c->file, static_cast<int>(c->i));
                continue;
              case K::Mem: sp[-1] = read(sp[-1].i, c->type); continue;
              case K::Un: err = applyUn(c->op, sp[-1], sp[-1]); break;
              case K::Bin:
                --sp;
                err = applyBin(c->op, sp[-1], sp[0], sp[-1]);
                break;
              case K::BadSym: unknownGlobal(*c->sym);
            }
            if (err)
                throw ExecError(err);
        }
        return sp[-1];
    }

  private:
    template <class T>
    T
    load(int64_t addr) const
    {
        checkAddr(addr, sizeof(T));
        T x;
        std::memcpy(&x, &mem[addr], sizeof(T));
        return x;
    }

    template <class T>
    void
    store(int64_t addr, T x)
    {
        checkAddr(addr, sizeof(T));
        std::memcpy(&mem[addr], &x, sizeof(T));
    }

    [[noreturn]] void outOfBounds(int64_t addr) const;
    [[noreturn]] static void unknownTarget(const Inst &inst);
    [[noreturn]] static void unknownGlobal(const Expr &sym);

    /** The evaluation stack, as deep as the deepest operand. */
    std::vector<Val> stack_;
};

} // namespace wmstream::rtl

#endif // WMSTREAM_RTL_EXEC_H
