/**
 * @file
 * A whole program: functions plus global data, with link-time layout.
 *
 * The driver acts as the paper's linker: it assigns every global symbol
 * an address in the simulated flat memory and records initial bytes so
 * the simulator (or a timing model) can load the image.
 */

#ifndef WMSTREAM_RTL_PROGRAM_H
#define WMSTREAM_RTL_PROGRAM_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rtl/image.h"
#include "rtl/inst.h"

namespace wmstream::rtl {

/** One global variable or constant-pool entry. */
struct GlobalVar
{
    std::string name;
    int64_t size = 0;
    int64_t align = 8;
    std::vector<uint8_t> init;  ///< may be shorter than size; rest zero
    int64_t address = -1;       ///< assigned by Program::layout()
    /**
     * False when no pointer can refer to this global (a scalar whose
     * address is never taken): only direct symbol-addressed stores can
     * modify it, which lets loop-invariant code motion hoist its loads.
     */
    bool mayBeAliased = true;
    /** True for constant-pool entries: never stored to. */
    bool readOnly = false;
};

/**
 * Functions, globals, and layout for one compiled program.
 */
class Program
{
  public:
    Function *addFunction(const std::string &name);
    Function *findFunction(const std::string &name);
    const Function *findFunction(const std::string &name) const;

    GlobalVar &addGlobal(const std::string &name, int64_t size,
                         int64_t align);
    GlobalVar *findGlobal(const std::string &name);

    std::vector<std::unique_ptr<Function>> &functions() { return funcs_; }
    const std::vector<std::unique_ptr<Function>> &functions() const
    {
        return funcs_;
    }
    std::vector<GlobalVar> &globals() { return globals_; }
    const std::vector<GlobalVar> &globals() const { return globals_; }

    /**
     * Assign addresses to all globals, starting above the stack
     * reservation (rtl/image.h).
     * @return one past the highest assigned address.
     */
    int64_t layout();

    /** One past the last global after layout(), or -1 before it. */
    int64_t dataEnd() const { return dataEnd_; }

    /** Address of @p name after layout() (panics if unknown). */
    int64_t globalAddress(const std::string &name) const;

    /** Render all functions (for tests and golden listings). */
    std::string str() const;

  private:
    std::vector<std::unique_ptr<Function>> funcs_;
    std::vector<GlobalVar> globals_;
    int64_t dataEnd_ = -1;
};

} // namespace wmstream::rtl

#endif // WMSTREAM_RTL_PROGRAM_H
