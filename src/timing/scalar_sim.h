/**
 * @file
 * Executing timing model for the scalar (load/store) target.
 *
 * Table I of the paper measures the recurrence optimization on real
 * machines (Sun 3/280, HP 9000/345, VAX 8600, Motorola 88100). We have
 * no 1990 hardware, so the substitution (see DESIGN.md) is an
 * executing simulator over the scalar RTL: it interprets the compiled
 * program sequentially — these are all single-issue machines — and
 * charges per-instruction costs from a per-machine CostModel. The
 * *ratio* between memory-reference cost and ALU cost is what the
 * experiment depends on; the models encode published instruction
 * timings coarsely.
 */

#ifndef WMSTREAM_TIMING_SCALAR_SIM_H
#define WMSTREAM_TIMING_SCALAR_SIM_H

#include <cstdint>
#include <string>
#include <vector>

#include "obs/counters.h"
#include "rtl/program.h"

namespace wmstream::timing {

/** Per-machine instruction costs, in cycles. */
struct CostModel
{
    std::string name;
    double cyclesIntAlu = 1;     ///< integer add/sub/logic/shift
    double cyclesIntMul = 4;
    double cyclesIntDiv = 20;
    double cyclesFltAdd = 2;     ///< also fp subtract
    double cyclesFltMul = 3;
    double cyclesFltDiv = 20;
    double cyclesLoad = 2;       ///< memory read incl. address mode
    double cyclesStore = 2;
    double cyclesCompare = 1;
    double cyclesBranch = 2;
    double cyclesMaterialize = 2; ///< address/constant materialization
    double cyclesCall = 5;
    double cyclesMove = 1;        ///< register-to-register copy
    double cyclesCvt = 4;
};

/** The four Table-I machines (see the .cc for the timing rationale). */
CostModel sun3_280Model();
CostModel hp9000_345Model();
CostModel vax8600Model();
CostModel m88100Model();

/**
 * Where a scalar machine's weighted cycles go: one class per
 * CostModel rate. Mirrors the wmsim stall-cause attribution so
 * WM-vs-68020 comparisons break down by cause on both sides.
 */
enum class CostClass : uint8_t {
    IntAlu, IntMul, IntDiv, FltAdd, FltMul, FltDiv, Load, Store,
    Compare, Branch, Materialize, Call, Move, Cvt,
    kCount
};

/** Stable lower_snake_case name of @p c. */
const char *costClassName(CostClass c);

/** Result of a timed scalar run. */
struct ScalarRunResult
{
    bool ok = false;
    int64_t returnValue = 0;
    std::string error;
    double cycles = 0;          ///< weighted cycle count
    uint64_t instsExecuted = 0;
    uint64_t memoryRefs = 0;    ///< loads + stores executed

    /** @name Per-class attribution (sums match the totals above) */
    /// @{
    double cyclesByClass[static_cast<size_t>(CostClass::kCount)] = {};
    uint64_t instsByClass[static_cast<size_t>(CostClass::kCount)] = {};
    /// @}

    double cyclesOf(CostClass c) const
    {
        return cyclesByClass[static_cast<size_t>(c)];
    }
    uint64_t instsOf(CostClass c) const
    {
        return instsByClass[static_cast<size_t>(c)];
    }

    /**
     * Export counters into @p reg under dotted names:
     * "cycles.load", "insts.branch", ... Weighted cycles are scaled
     * by 1000 (registry values are integers) under "millicycles.*".
     */
    void exportCounters(obs::CounterRegistry &reg) const;
};

/**
 * Execute a register-assigned scalar-target program under @p model.
 * The program must be laid out. Cost accrues per executed instruction.
 */
ScalarRunResult runScalar(const rtl::Program &prog, const CostModel &model,
                          uint64_t maxInsts = 2'000'000'000);

} // namespace wmstream::timing

#endif // WMSTREAM_TIMING_SCALAR_SIM_H
