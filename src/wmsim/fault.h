/**
 * @file
 * Stall taxonomy, typed simulation faults, and deadlock forensics
 * for the WM machine.
 *
 * The decoupled access/execute design makes FIFO producer/consumer
 * balance a correctness property: a miscompiled queue discipline
 * wedges the machine with every unit waiting on a FIFO that will
 * never fill (or drain). Instead of burning cycles until the limit
 * and returning an opaque string, the simulator's watchdog detects a
 * bounded no-progress window, snapshots the machine, and builds a
 * wait-for graph whose nodes are the units (IFU/IEU/FEU/VEU/SCUs)
 * and whose edges say "X cannot proceed until Y acts", reusing the
 * StallCause taxonomy for edge labels.
 *
 * Classification:
 *  - Deadlock: no progress counter moved for a full watchdog window.
 *    If the wait-for graph contains a cycle it is reported; otherwise
 *    the chain from the first blocked unit to its unsatisfiable
 *    resource is.
 *  - Livelock: the cycle limit was reached while progress counters
 *    were still moving (e.g. unbounded recursion or an infinite
 *    loop that keeps executing instructions).
 *
 * The report is a plain value type with three render paths: a dedup
 * signature (wmfuzz buckets findings by blocked units + causes +
 * wait cycle, not error-string prefix), human-readable text, and a
 * schema_version'd JSON object (wmc --fault-report=json, stats-json
 * "fault" section, joined by wmreport).
 */

#ifndef WMSTREAM_WMSIM_FAULT_H
#define WMSTREAM_WMSIM_FAULT_H

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"

namespace wmstream::wmsim {

/**
 * Why a unit could not make progress this cycle.
 *
 * Each stalled unit-cycle is attributed to exactly one cause — the
 * first condition, in the unit's own evaluation order, that blocked
 * it — so per-unit cause counts sum exactly to that unit's total
 * stall cycles (see DESIGN.md "Stall-cause taxonomy").
 */
enum class StallCause : uint8_t {
    None,              ///< made progress (not a stall)
    DataFifoEmpty,     ///< input operand FIFO has no data yet
    DataFifoFull,      ///< output enqueue target FIFO is full
    CcFifoEmpty,       ///< IFU: conditional jump waits on a compare
    CcFifoFull,        ///< compare result has nowhere to go
    StoreQueueFull,    ///< store address queue is full
    MemPortContention, ///< all memory ports claimed this cycle
    StreamOwnership,   ///< FIFO owned by an active stream
    DivBusy,           ///< unit occupied by a multi-cycle divide
    InstQueueEmpty,    ///< unit has no work (idle, not a stall)
    InstQueueFull,     ///< IFU: target unit's instruction queue full
    SyncWait,          ///< IFU: synchronizing op waits for unit drain
    VeuBusy,           ///< IFU: vector op waits for the VEU
    ScuDrainWait,      ///< IFU: stream start waits for IEU drain
    ScuUnavailable,    ///< IFU: no free stream control unit
    ScuFifoBusy,       ///< IFU: previous stream still owns the FIFO
    kCount
};

/** Stable lower_snake_case name of @p c (JSON keys, test messages). */
const char *stallCauseName(StallCause c);

/** What kind of fault ended the run (SimResult::fault). */
enum class SimFault : uint8_t {
    None,         ///< run completed (or failed before simulation)
    RuntimeError, ///< program error: bad address, zero divisor, ...
    Deadlock,     ///< watchdog: no progress for a full window
    Livelock,     ///< cycle limit reached while still making progress
};

/** Stable lower_snake_case name of @p f (JSON, exit-code mapping). */
const char *simFaultName(SimFault f);

/** Snapshot of one unit at fault time. */
struct FaultUnitState
{
    std::string unit;    ///< "ifu", "ieu", "feu", "veu", "scu0", ...
    bool blocked = false;
    StallCause cause = StallCause::None;
    int64_t pc = -1;     ///< IFU: fetch pc; units: -1
    std::string inst;    ///< head-of-queue / fetch-pc instruction text
    int loopId = -1;     ///< source loop of `inst` (rtl::Inst::loopId)
};

/** Snapshot of one FIFO or queue at fault time. */
struct FaultQueueState
{
    std::string name;    ///< occupancy-series name, e.g. "in_fifo.int0"
    int occupancy = 0;
    int capacity = 0;
};

/** Snapshot of one active stream at fault time. */
struct FaultStreamState
{
    int scu = -1;
    bool input = true;
    int side = 0;        ///< 0 = int, 1 = flt
    int fifo = 0;
    int64_t base = 0;
    int64_t stride = 0;
    int64_t count = -1;  ///< -1 = unbounded
    int64_t issued = 0;
    int64_t done = 0;
    int64_t dispatchedEnqueues = 0;
    bool closed = false;
};

/** One wait-for edge: @p from cannot proceed until @p to acts. */
struct WaitForEdge
{
    std::string from;
    std::string to;
    std::string why;     ///< StallCause name or free-form reason
};

/**
 * Structured fault report. Built by the simulator's watchdog (and by
 * the cycle-limit path for livelocks); carried in SimResult.
 */
struct FaultReport
{
    /** Bump when the JSON layout changes incompatibly. */
    static constexpr int kSchemaVersion = 1;

    SimFault kind = SimFault::None;
    uint64_t cycle = 0;             ///< cycle the fault was raised
    uint64_t lastProgressCycle = 0; ///< last cycle any counter moved
    uint64_t window = 0;            ///< configured no-progress window
    std::string message;            ///< one-line summary

    std::vector<FaultUnitState> units;
    std::vector<FaultQueueState> queues;
    std::vector<FaultStreamState> streams;
    std::vector<WaitForEdge> edges;
    /**
     * Node names forming a wait-for cycle (first node repeated at the
     * end), or — when the graph is acyclic — the chain from the first
     * blocked unit to its dead-end resource.
     */
    std::vector<std::string> waitChain;
    bool cycleFound = false; ///< waitChain is a true cycle

    /**
     * Dedup key for fuzz campaigns: fault kind + sorted
     * "unit=cause" pairs + the wait chain. Two deadlocks of the same
     * shape (same blocked units, same causes, same cycle) collapse to
     * one signature regardless of addresses, counts, or cycle
     * numbers.
     */
    std::string signature() const;

    /** Multi-line human-readable rendering (wmc --fault-report). */
    std::string text() const;

    /**
     * Emit the report as one JSON object value (caller is positioned
     * at a value: top level, array slot, or after key()).
     */
    void writeJson(obs::JsonWriter &w) const;
};

/**
 * Find a cycle in @p edges by DFS. Returns the node names of the
 * first cycle found with the entry node repeated at the end
 * ("ieu" -> "scu0" -> "ifu" -> "ieu"), or empty when acyclic.
 */
std::vector<std::string> findWaitCycle(
    const std::vector<WaitForEdge> &edges);

} // namespace wmstream::wmsim

#endif // WMSTREAM_WMSIM_FAULT_H
