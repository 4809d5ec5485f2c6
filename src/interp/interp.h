/**
 * @file
 * Reference interpreter for mini-C ASTs.
 *
 * The interpreter executes a checked TranslationUnit over a flat byte
 * memory with the same data layout rules the compiler uses (int and
 * double are 8 bytes, char is 1), and the machines' image layout
 * (rtl/image.h): the stack reservation, then the globals, sized to the
 * program under the same ceiling. It is the oracle for differential
 * testing: every compiled configuration of every benchmark must return
 * the same value from main() as this interpreter.
 */

#ifndef WMSTREAM_INTERP_INTERP_H
#define WMSTREAM_INTERP_INTERP_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "frontend/ast.h"

namespace wmstream::interp {

/** A runtime scalar: integer/pointer or double. */
struct Value
{
    bool isFloat = false;
    int64_t i = 0;
    double f = 0.0;

    static Value ofInt(int64_t v) { return {false, v, 0.0}; }
    static Value ofFloat(double v) { return {true, 0, v}; }

    bool truthy() const { return isFloat ? f != 0.0 : i != 0; }
};

/** Result of a program run. */
struct InterpResult
{
    bool ok = false;
    int64_t returnValue = 0;
    std::string error;          ///< set when !ok
    uint64_t stepsExecuted = 0; ///< AST nodes evaluated (budget metric)
};

/**
 * Evaluate a semantically checked AST's constant expression.
 * Used for global initializers. Panics on non-constant input.
 */
Value evalConstExpr(const frontend::Expr &e);

/**
 * Interpreter for one TranslationUnit.
 *
 * Construction lays out globals in a private memory image; run() calls
 * main(). A step budget guards against runaway loops in differential
 * tests.
 */
class Interpreter
{
  public:
    explicit Interpreter(const frontend::TranslationUnit &unit);

    /** Execute main() and return its value. */
    InterpResult run(uint64_t stepBudget = 2'000'000'000);

    /** Size of the memory image in bytes. */
    size_t imageBytes() const { return mem_.size(); }

    /** Address of a global after construction (for memory inspection). */
    int64_t globalAddress(const std::string &name) const;

    /** Read raw memory (for test assertions on final data). */
    int64_t readInt(int64_t addr) const;
    double readDouble(int64_t addr) const;
    uint8_t readByte(int64_t addr) const;

  private:
    struct Frame
    {
        std::unordered_map<const frontend::Decl *, Value> regs;
        std::unordered_map<const frontend::Decl *, int64_t> slots;
        int64_t savedSp = 0;
    };

    /** Non-local control transfer through statement execution. */
    enum class Flow { Normal, Break, Continue, Return };

    struct RunError : std::runtime_error
    {
        using std::runtime_error::runtime_error;
    };

    void layoutGlobals();
    void storeInit(int64_t addr, const frontend::TypePtr &ty,
                   const frontend::Initializer &init);

    Value callFunction(const frontend::FuncDecl &fn,
                       std::vector<Value> args);
    Flow execStmt(const frontend::Stmt &s, Frame &frame, Value &retVal);
    Value evalExpr(const frontend::Expr &e, Frame &frame);

    /** An lvalue: either a register slot or a memory address. */
    struct LValue
    {
        const frontend::Decl *reg = nullptr; ///< register-resident
        int64_t addr = 0;
        frontend::TypePtr type;
    };
    LValue evalLValue(const frontend::Expr &e, Frame &frame);
    Value loadLValue(const LValue &lv, Frame &frame);
    void storeLValue(const LValue &lv, Value v, Frame &frame);

    void storeScalar(int64_t addr, const frontend::TypePtr &ty, Value v);
    Value loadScalar(int64_t addr, const frontend::TypePtr &ty) const;

    void checkAddr(int64_t addr, int64_t size) const;
    void budget();

    const frontend::TranslationUnit &unit_;
    std::vector<uint8_t> mem_;
    std::unordered_map<std::string, int64_t> globalAddrs_;
    /** Why main cannot start (globals too large), or empty. */
    std::string startError_;
    int64_t sp_ = 0; ///< interpreter stack pointer (grows down)
    uint64_t steps_ = 0;
    uint64_t stepBudget_ = 0;
    int callDepth_ = 0;
};

} // namespace wmstream::interp

#endif // WMSTREAM_INTERP_INTERP_H
