/**
 * @file
 * Induction-variable and linear-address-form analysis.
 *
 * Supplies what the paper's partition vectors need: for each memory
 * reference in a loop, the induction variable, the direction, and the
 * 'cee' / 'dee' values of the address expression addr = cee*iv + dee
 * (see AHO86 ch. 10 for the induction-variable framework).
 *
 * A basic induction variable is a register with exactly one definition
 * in the loop, of the form r := r +/- c, that executes once per
 * iteration (its block dominates every latch). Address expressions are
 * linearized into
 *
 *     coeff * iv + base + offset
 *
 * where base identifies the memory region: a global symbol (possibly
 * through a register that was loaded with the symbol's address outside
 * the loop), a loop-invariant register (e.g. a pointer parameter), or
 * unknown.
 */

#ifndef WMSTREAM_OPT_INDVARS_H
#define WMSTREAM_OPT_INDVARS_H

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cfg/defuse.h"
#include "cfg/dominators.h"
#include "cfg/liveness.h"
#include "cfg/loops.h"
#include "rtl/machine.h"

namespace wmstream::opt {

/** A basic induction variable of a loop. */
struct BasicIV
{
    rtl::ExprPtr reg;        ///< the register
    int64_t step = 0;        ///< signed per-iteration increment
    rtl::Block *defBlock = nullptr;
    size_t defIndex = 0;     ///< index of the increment in defBlock
};

/** A linearized value: coeff * iv + base + offset. */
struct LinForm
{
    enum class Base : uint8_t { None, Sym, Reg, Unknown };

    bool valid = false;
    int64_t coeff = 0;
    Base baseKind = Base::None;
    std::string sym;          ///< Base::Sym
    rtl::ExprPtr baseReg;     ///< Base::Reg (loop-invariant register)
    int64_t offset = 0;       ///< constant addend (includes sym offset)

    /** The paper's 'dee' printable form, e.g. "_x-8". */
    std::string deeStr() const;
};

/** A point in the program: block plus instruction index. */
struct InstPoint
{
    rtl::Block *block = nullptr;
    size_t index = 0;
};

/**
 * Induction-variable analysis for one loop.
 *
 * Construct once per loop (after the CFG, dominator tree and def/use
 * table are current); then query basic IVs and linearize address
 * expressions. Whole-function def questions go to @p defUse; only the
 * loop's own defs are collected here.
 */
class IndVarAnalysis
{
  public:
    IndVarAnalysis(rtl::Function &fn, cfg::Loop &loop,
                   const cfg::DominatorTree &dt,
                   const cfg::DefUseTable &defUse,
                   const rtl::MachineTraits &traits);

    const std::vector<BasicIV> &basicIVs() const { return ivs_; }

    /** The IV whose register equals @p r, or nullptr. */
    const BasicIV *findIV(const rtl::ExprPtr &r) const;

    /** True if no register in @p e is defined inside the loop. */
    bool isInvariant(const rtl::ExprPtr &e) const;

    /** True if register (file,index) has no definition inside the loop. */
    bool regInvariant(rtl::RegFile file, int index) const;

    /**
     * Linearize @p e as evaluated at @p at with respect to @p iv.
     * Values of the IV refer to the IV at entry to the current
     * iteration; a use after the increment adds one step.
     */
    LinForm linearize(const rtl::ExprPtr &e, const BasicIV &iv,
                      InstPoint at) const;

    /**
     * Resolve a loop-invariant register to the symbol it addresses, by
     * chasing its unique reaching definitions (reg := _sym, reg :=
     * other_reg, reg := reg + const). Returns Base::Reg form when the
     * chain ends at an opaque value (parameter, call result).
     */
    LinForm resolveInvariantReg(const rtl::ExprPtr &r) const;

  private:
    struct DefSite
    {
        rtl::Block *block = nullptr;
        size_t index = 0;
        int count = 0;
    };

    void collectLoopDefs();
    void findBasicIVs();

    /** True if the IV increment executes before @p at in an iteration. */
    bool incrementedBefore(const BasicIV &iv, InstPoint at) const;

    static LinForm addForms(const LinForm &a, const LinForm &b, int sign);
    static LinForm scaleForm(const LinForm &a, int64_t factor);

    rtl::Function &fn_;
    cfg::Loop &loop_;
    const cfg::DominatorTree &dt_;
    const cfg::DefUseTable &defUse_;
    const rtl::MachineTraits traits_;

    /**
     * Defs inside the loop; findBasicIVs visits them in map order,
     * which depends on the insertion order: layout order.
     */
    std::unordered_map<cfg::RegKey, DefSite, cfg::RegKeyHash> loopDefs_;
    std::vector<BasicIV> ivs_;
};

} // namespace wmstream::opt

#endif // WMSTREAM_OPT_INDVARS_H
