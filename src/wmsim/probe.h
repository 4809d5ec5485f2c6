/**
 * @file
 * Probe interface: what the WM simulator reports about its machine.
 *
 * sim.cc models the paper's Figure 1 machine and records nothing. It
 * reports each thing the machine does as one typed event to a Probe,
 * and every recorder is a sink that builds its output from the events:
 * occupancy histograms, the Chrome trace and the flight-recorder time
 * series (probes.cc), and the critical-path DAG (critpath_probe.cc).
 * With no sink configured the probe is null, so a hook site costs one
 * predictable branch.
 *
 * Events arrive in the simulator's phase order (deliver reads, IEU,
 * FEU, commit stores, VEU, SCUs, IFU); each cycle ends with cycleEnd().
 * An action event comes first, then the pushes and pops it performs on
 * the data FIFOs, CC FIFOs and store queues. A dispatch is the push of
 * an instruction queue and an exec its pop.
 */

#ifndef WMSTREAM_WMSIM_PROBE_H
#define WMSTREAM_WMSIM_PROBE_H

#include <cstdint>
#include <memory>
#include <span>

#include "rtl/exec.h"
#include "wmsim/sim.h"

namespace wmstream::wmsim {

/**
 * The observed queues, in the order occupancy series, trace counters,
 * time-series level channels, critical-path queues and the fault
 * report all use. Side 0 is integer, 1 float.
 */
constexpr int kNumQueues = 14;
extern const char *const kQueueNames[kNumQueues];
constexpr int qIn(int side, int fifo) { return side * 2 + fifo; }
constexpr int qOut(int side, int fifo) { return 4 + side * 2 + fifo; }
constexpr int qCc(int side) { return 8 + side; }
constexpr int qInst(int unit) { return 10 + unit; }
constexpr int qStore(int side) { return 12 + side; }

/** Configured capacity of queue @p q. */
int queueDepth(const SimConfig &cfg, int q);

/** The units that stall: IEU 0 and FEU 1 (as unit queues), and this. */
constexpr int kIfu = 2;

/** One SCU slot at the end of a cycle. */
struct StreamView
{
    bool active;
    bool input;
    int side;
    int fifo;
    int64_t count; ///< -1 = unbounded
    int64_t stride;
};

/** Read-only view of the machine at the end of a cycle. */
struct CycleView
{
    uint64_t cycle;
    uint32_t levels[kNumQueues]; ///< occupancy, kQueueNames order
    std::span<const StreamView> streams; ///< one per SCU slot
    bool veuActive;
    const SimStats &stats;
};

/** Receiver of machine events; every hook defaults to nothing. */
class Probe
{
  public:
    virtual ~Probe() = default;

    /**
     * The IFU queued the instruction at @p pc for unit @p u;
     * @p streamEnq: its FIFO enqueue feeds the active out-stream.
     */
    virtual void dispatch(int /*u*/, int64_t /*pc*/, bool /*streamEnq*/) {}
    /** Unit @p u executed it; @p divides: busy for the divide latency. */
    virtual void exec(int /*u*/, int64_t /*pc*/, bool /*divides*/) {}
    /**
     * The IFU executed the instruction at @p pc itself, whose kind
     * says what it did: a jump, a branch (its CC FIFO pop follows), a
     * JNI, a call, a return, a stream stop, a synchronizing conversion
     * or a vector op.
     */
    virtual void ifu(int64_t /*pc*/) {}
    /** Unit @p u made no progress; InstQueueEmpty: an idle IEU/FEU. */
    virtual void stall(int /*u*/, StallCause /*c*/) {}
    virtual void push(int /*q*/) {}
    virtual void pop(int /*q*/) {}
    /** A scalar load's read to in_fifo.<side>0 went out. */
    virtual void readIssue(int /*side*/) {}
    /**
     * The oldest read in flight to an in FIFO delivered (its push
     * follows); @p ordered: it was held behind an older store.
     */
    virtual void readDeliver(int /*side*/, int /*fifo*/, bool /*ordered*/) {}
    /** That read belonged to a retired stream and was dropped. */
    virtual void readDiscard(int /*side*/, int /*fifo*/) {}
    /** store_q.<side>'s head committed with out_fifo.<side>0's head. */
    virtual void storeCommit(int /*side*/) {}
    /** The IFU started the stream at @p pc on SCU @p slot. */
    virtual void streamStart(int /*slot*/, int64_t /*pc*/) {}
    /** An input stream issued a read, reserving its FIFO slot. */
    virtual void streamIssue(int /*slot*/) {}
    /** An output stream wrote an element (its pop follows). */
    virtual void streamWrite(int /*slot*/) {}
    virtual void streamRetire(int /*slot*/) {}
    /** A stop cancelled the input stream, dropping its data. */
    virtual void streamCancel(int /*slot*/) {}
    /** The VEU produced an element (its pops and push follow). */
    virtual void veuElement() {}
    virtual void cycleEnd(const CycleView & /*v*/) {}
    /** The run ended (also on a fault); a sink may fill @p stats. */
    virtual void runEnd(uint64_t /*cycle*/, SimStats & /*stats*/) {}
};

/** The sinks @p cfg asks for, as one probe; null when none. */
std::unique_ptr<Probe> makeProbes(const SimConfig &cfg,
                                  const rtl::Executable &exe);

/** The critical-path sink for cfg.critpath (critpath_probe.cc). */
std::unique_ptr<Probe> makeCritPathProbe(const SimConfig &cfg,
                                         const rtl::Executable &exe);

} // namespace wmstream::wmsim

#endif // WMSTREAM_WMSIM_PROBE_H
