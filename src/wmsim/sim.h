/**
 * @file
 * Cycle-level simulator for the WM decoupled access/execute machine.
 *
 * Models the units of the paper's Figure 1:
 *  - an instruction fetch unit (IFU) that dispatches instructions into
 *    per-unit FIFO instruction queues and itself executes control
 *    transfers using per-unit condition-code FIFOs (unconditional
 *    jumps are free; conditional jumps stall only when the CC FIFO is
 *    empty);
 *  - an integer and a floating-point execution unit (IEU/FEU), each
 *    executing its queue in order, one instruction per cycle (divides
 *    take longer), reading register 0/1 as data-FIFO dequeues and
 *    writing register 0/1 as enqueues, with register 31 hardwired to
 *    zero;
 *  - stream control units (SCUs) that autonomously generate the
 *    address sequence of SinX/SoutX instructions and move data between
 *    memory and the data FIFOs;
 *  - a flat memory with a configurable access latency and a
 *    configurable number of ports.
 *
 * Loads are executed by the IEU as address generations; the datum
 * arrives in the input FIFO of the data's unit after the memory
 * latency. Stores pair an address (from the IEU) with data enqueued
 * into the output FIFO. Memory ordering between pending stores,
 * stream-outs, and loads is enforced by dispatch order.
 *
 * Deviation from the paper, documented in DESIGN.md: the dual-ALU
 * "result not available to the following instruction" rule is modeled
 * as a fully interlocked pipeline (no stall, result visible next
 * cycle); int/float conversions are executed by the IFU as
 * synchronizing instructions, as the paper prescribes.
 */

#ifndef WMSTREAM_WMSIM_SIM_H
#define WMSTREAM_WMSIM_SIM_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/counters.h"
#include "obs/critpath.h"
#include "obs/histogram.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "rtl/program.h"
#include "wmsim/fault.h"

namespace wmstream::wmsim {

/** Tunable machine parameters. */
struct SimConfig
{
    int memLatency = 4;        ///< cycles from request to FIFO arrival
    int memPorts = 2;          ///< memory requests accepted per cycle
    int instQueueDepth = 8;    ///< per-unit instruction queue entries
    int dataFifoDepth = 8;     ///< per data FIFO entries
    int ccFifoDepth = 8;       ///< per condition-code FIFO entries
    int storeQueueDepth = 8;   ///< pending store addresses per side
    int numSCUs = 4;           ///< concurrent streams supported
    int scuStartupCycles = 4;  ///< SCU activation to first address
    int scuBurst = 1;          ///< memory requests per SCU per cycle
    int veuLanes = 4;          ///< vector unit elements per cycle
    int fetchWidth = 4;        ///< IFU instructions processed per cycle
    int divLatency = 8;        ///< integer and float divide occupancy
    /**
     * Hard cycle budget. A run that is still making progress at the
     * limit ends with SimFault::Livelock; genuine deadlocks are
     * caught long before this by the watchdog. The default bounds a
     * runaway test at seconds, not hours.
     */
    uint64_t maxCycles = 50'000'000;
    /**
     * Deadlock watchdog: cycles of zero progress (no dispatch, no
     * retire, no memory delivery, no stream or store movement) before
     * the run is declared deadlocked and forensics are captured.
     * Must exceed every architectural latency (memLatency,
     * divLatency, scuStartupCycles); 0 disables the watchdog.
     */
    uint64_t watchdogWindow = 4096;
    /**
     * Chaos mode: when nonzero, seed a per-cycle perturbation of
     * timing-only parameters (memory latency jitter, port grants,
     * SCU startup, fetch width). Architectural results must be
     * identical to the deterministic run — the fuzz harness enforces
     * this; see DESIGN.md §11.
     */
    uint64_t chaosSeed = 0;

    /**
     * @name Observability (off by default: the hot loop stays lean)
     * Each field turns on one probe sink (wmsim/probe.h) that the
     * simulator builds from it. The caller owns every recorder passed
     * here; it must outlive the run.
     */
    /// @{
    /** Sample per-FIFO/queue occupancy histograms every cycle. */
    bool collectOccupancy = false;
    /**
     * Per-cycle pipeline trace (Chrome trace_event format, one
     * counter track per unit/FIFO, one duration event per stream).
     */
    obs::TraceWriter *trace = nullptr;
    /**
     * Flight recorder: once per cycle, per-window counts (unit
     * busy/stall-cause, FIFO occupancy sums, dispatch/retire rates,
     * live streams). Construct it with simTimeSeriesChannels(), the
     * fixed layout the sink addresses; the simulator advances and
     * finishes it. Channel totals sum exactly to the SimStats
     * aggregates.
     */
    obs::TimeSeries *timeseries = nullptr;
    /**
     * Causal critical-path recorder: one DAG event per unit of forward
     * progress, with edges typed by the stall taxonomy and tagged with
     * the remarks loop id. Pass a freshly-constructed recorder; the
     * sink registers its unit/cause/queue taxonomy and marks the end
     * event when the run finishes (also on faults). Run the analyses
     * after the run.
     */
    obs::CritPath *critpath = nullptr;
    /// @}
};

/**
 * Channel layout for SimConfig::timeseries, in index order: the
 * SimStats::counters() table (its scalar rows, then every per-cause
 * split), so a consumer can verify per-window sums against the stats
 * document by name alone; then the level channels ("occ.<series>"
 * occupancy sums and "scu.active" live-stream count), per-cycle
 * samples whose window mean is count / window cycles.
 */
std::vector<std::string> simTimeSeriesChannels();

// StallCause and its name table live in wmsim/fault.h (included
// above) so the fault-forensics layer can label wait-for edges
// without a circular include.

/** Per-unit stall attribution: one bucket per cause. */
struct UnitStallStats
{
    uint64_t byCause[static_cast<size_t>(StallCause::kCount)] = {};

    uint64_t &operator[](StallCause c)
    {
        return byCause[static_cast<size_t>(c)];
    }
    uint64_t at(StallCause c) const
    {
        return byCause[static_cast<size_t>(c)];
    }
    /** Sum over all causes (InstQueueEmpty is tracked as idle, not here). */
    uint64_t total() const;
};

/** One sampled occupancy series (a FIFO or queue). */
struct OccupancySeries
{
    std::string name;     ///< e.g. "in_fifo.int0", "inst_q.feu"
    obs::Histogram hist;  ///< occupancy sampled once per cycle
};

/**
 * Cycles attributed to one source loop (joined on rtl::Inst::loopId,
 * the id the compiler's remark registry assigned).
 *
 * Every simulated cycle is attributed to exactly one bucket — the loop
 * id of the instruction at the fetch PC when the cycle begins, or -1
 * when the PC is outside every loop — so bucket cycles sum exactly to
 * SimStats::cycles. Unit stall causes observed during the cycle land
 * in the same bucket (merged over IFU/IEU/FEU in `stalls`), which is
 * what lets wmreport name each loop's dominant stall cause.
 */
struct LoopCycleStats
{
    int loopId = -1;             ///< -1 = outside every loop
    uint64_t cycles = 0;
    uint64_t ieuStallCycles = 0;
    uint64_t feuStallCycles = 0;
    uint64_t ifuStallCycles = 0;
    UnitStallStats stalls;       ///< per-cause, merged over all units

    /** The stall cause with the highest count, or None. */
    StallCause dominantStall() const;
};

/** One row of the counter table (SimStats::counters()). */
struct SimCounter
{
    const char *name;
    uint64_t value;
    /**
     * For a unit's stall total: the per-cause split it sums, exported
     * as causePrefix + stallCauseName(cause) for each cause.
     */
    const UnitStallStats *causes = nullptr;
    const char *causePrefix = nullptr;
};

/** Aggregate run statistics. */
struct SimStats
{
    uint64_t cycles = 0;
    uint64_t instsDispatched = 0;
    uint64_t ieuExecuted = 0;
    uint64_t feuExecuted = 0;
    uint64_t ifuExecuted = 0;
    uint64_t loadsIssued = 0;
    uint64_t storesCommitted = 0;
    uint64_t streamElementsIn = 0;
    uint64_t streamElementsOut = 0;
    uint64_t vectorElements = 0;

    /**
     * @name Stall attribution (always on)
     * A unit's stall cycles are the total() of its per-cause split.
     */
    /// @{
    UnitStallStats ieuStalls;
    UnitStallStats feuStalls;
    UnitStallStats ifuStalls;
    uint64_t ieuIdleCycles = 0; ///< instruction queue empty
    uint64_t feuIdleCycles = 0;
    uint64_t scuStartupWaitCycles = 0;   ///< stream-cycles in startup
    uint64_t scuPortContentionCycles = 0;///< SCU issue beaten to ports
    uint64_t storePortContentionCycles = 0; ///< store commit blocked
    /// @}

    /** Occupancy histograms; empty unless SimConfig::collectOccupancy. */
    std::vector<OccupancySeries> occupancy;

    /**
     * Per-loop cycle attribution, sorted by loopId ascending (bucket
     * -1 first when present). Always collected; see LoopCycleStats.
     */
    std::vector<LoopCycleStats> loops;

    /**
     * The cumulative counters, in the one order the stats document,
     * the metrics and the time-series channels all use.
     */
    std::array<SimCounter, 17> counters() const;

    /**
     * Export every counter (and histogram summary stats) into @p reg
     * under dotted names: "ieu.executed", "ieu.stall.data_fifo_empty",
     * "scu.startup_wait_cycles", ... The registry is the single
     * serialization path for stats JSON.
     */
    void exportCounters(obs::CounterRegistry &reg) const;
};

/** Result of a simulation. */
struct SimResult
{
    bool ok = false;
    int64_t returnValue = 0;
    std::string error;
    /**
     * Typed fault classification: None when ok, RuntimeError for
     * program errors, Deadlock/Livelock from the watchdog and cycle
     * limit. `error` keeps a one-line rendering for callers that only
     * print strings.
     */
    SimFault fault = SimFault::None;
    /** Forensics; populated when fault is Deadlock or Livelock. */
    FaultReport faultReport;
    SimStats stats;
};

/**
 * Simulator instance: owns the flattened code and memory image.
 *
 * The program must be laid out (Program::layout) and lowered to WM
 * FIFO form. Memory can be inspected after the run for test oracles.
 */
class Simulator
{
  public:
    Simulator(const rtl::Program &prog, SimConfig config = {});

    /** Run main() to completion. */
    SimResult run();

    /** @name Post-run memory inspection */
    /// @{
    int64_t readInt(int64_t addr) const;
    double readDouble(int64_t addr) const;
    uint8_t readByte(int64_t addr) const;
    /// @}

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;

  public:
    ~Simulator();
};

/** One-call convenience: construct and run. */
SimResult simulate(const rtl::Program &prog, SimConfig config = {});

} // namespace wmstream::wmsim

#endif // WMSTREAM_WMSIM_SIM_H
