#include "wmsim/sim.h"

#include <algorithm>

#include "rtl/exec.h"
#include "support/convert.h"
#include "support/diag.h"
#include "support/ring.h"
#include "support/rng.h"
#include "support/str.h"

namespace wmstream::wmsim {

using rtl::DataType;
using rtl::ExecError;
using rtl::Expr;
using rtl::ExprPtr;
using rtl::Inst;
using rtl::InstKind;
using rtl::Op;
using rtl::RegFile;
using rtl::UnitSide;
using rtl::Val;
using support::Ring;

namespace {

/** Which engine executes an instruction. */
enum class Engine : uint8_t { IFU, IEU, FEU, SCU };

bool
isCvtAssign(const Inst &inst)
{
    return inst.kind == InstKind::Assign &&
           inst.src->kind() == Expr::Kind::Un &&
           (inst.src->op() == Op::CvtIF || inst.src->op() == Op::CvtFI);
}

Engine
engineOf(const Inst &inst)
{
    switch (inst.kind) {
      case InstKind::Jump:
      case InstKind::CondJump:
      case InstKind::JumpStream:
      case InstKind::Call:
      case InstKind::Return:
      case InstKind::StreamStop:
        return Engine::IFU;
      case InstKind::StreamIn:
      case InstKind::StreamOut:
      case InstKind::VecOp:
        return Engine::SCU; // dispatched like streams (IFU handles it)
      case InstKind::Load:
      case InstKind::Store:
        return Engine::IEU;
      case InstKind::Assign: {
        if (isCvtAssign(inst))
            return Engine::IFU; // synchronizing conversion
        RegFile f = inst.dst->regFile();
        if (f == RegFile::Flt)
            return Engine::FEU;
        if (f == RegFile::CC)
            return inst.dst->regIndex() == 1 ? Engine::FEU : Engine::IEU;
        return Engine::IEU;
      }
    }
    return Engine::IEU;
}

/** How an instruction's destination register is written. */
enum class Dst : uint8_t {
    None, ///< no destination register, or the hardwired zero
    Reg,  ///< an ordinary register of file `side`
    Fifo, ///< an enqueue into output FIFO (side, index)
    Cc,   ///< an enqueue into condition-code FIFO `side`
};

/**
 * What the run loop needs to know about one instruction, decoded once
 * from its RTL. Indexed by pc, parallel to Executable::code.
 */
struct InstFacts
{
    Engine engine = Engine::IEU;
    Dst dst = Dst::None;
    uint8_t side = 0;  ///< destination: 0 integer, 1 float
    uint8_t index = 0; ///< destination register or FIFO
    bool divides = false; ///< src has a divide or remainder
    /** Input-FIFO reads per (side, fifo) of the src and addr operands. */
    uint8_t needs[2][2] = {};
    uint32_t bucket = 0; ///< index into Impl::loopBuckets
};

} // anonymous namespace

// stallCauseName lives in fault.cc with the rest of the fault layer.

uint64_t
UnitStallStats::total() const
{
    uint64_t sum = 0;
    for (uint64_t v : byCause)
        sum += v;
    return sum;
}

StallCause
LoopCycleStats::dominantStall() const
{
    size_t best = 0;
    uint64_t bestCount = 0;
    for (size_t c = 1; c < static_cast<size_t>(StallCause::kCount); ++c)
        if (stalls.byCause[c] > bestCount) {
            best = c;
            bestCount = stalls.byCause[c];
        }
    return static_cast<StallCause>(best);
}

void
SimStats::exportCounters(obs::CounterRegistry &reg) const
{
    reg.set("cycles", cycles);
    reg.set("insts_dispatched", instsDispatched);
    reg.set("loads_issued", loadsIssued);
    reg.set("stores_committed", storesCommitted);
    reg.set("stream.elements_in", streamElementsIn);
    reg.set("stream.elements_out", streamElementsOut);
    reg.set("vector_elements", vectorElements);

    auto unit = [&](const char *u, uint64_t executed, uint64_t stallTotal,
                    const UnitStallStats &stalls) {
        std::string p(u);
        reg.set(p + ".executed", executed);
        reg.set(p + ".stall_cycles", stallTotal);
        for (size_t c = 1; c < static_cast<size_t>(StallCause::kCount);
             ++c) {
            uint64_t v = stalls.byCause[c];
            if (v)
                reg.set(p + ".stall." +
                            stallCauseName(static_cast<StallCause>(c)),
                        v);
        }
    };
    unit("ieu", ieuExecuted, ieuStallCycles, ieuStalls);
    unit("feu", feuExecuted, feuStallCycles, feuStalls);
    unit("ifu", ifuExecuted, ifuStallCycles, ifuStalls);
    reg.set("ieu.idle_empty_cycles", ieuIdleCycles);
    reg.set("feu.idle_empty_cycles", feuIdleCycles);
    reg.set("scu.startup_wait_cycles", scuStartupWaitCycles);
    reg.set("scu.port_contention_cycles", scuPortContentionCycles);
    reg.set("store.port_contention_cycles", storePortContentionCycles);

    for (const OccupancySeries &s : occupancy) {
        reg.set("occupancy." + s.name + ".samples", s.hist.count());
        reg.set("occupancy." + s.name + ".max",
                static_cast<uint64_t>(s.hist.max()));
        reg.set("occupancy." + s.name + ".p50",
                static_cast<uint64_t>(s.hist.p50()));
        reg.set("occupancy." + s.name + ".p95",
                static_cast<uint64_t>(s.hist.p95()));
        reg.set("occupancy." + s.name + ".p99",
                static_cast<uint64_t>(s.hist.p99()));
    }

    // Per-loop buckets, "loop.<id>.*" ("loop.-1" = outside every loop).
    // Bucket cycles sum exactly to "cycles" (the attribution invariant
    // wmreport checks).
    for (const LoopCycleStats &l : loops) {
        std::string p = "loop." + std::to_string(l.loopId);
        reg.set(p + ".cycles", l.cycles);
        if (l.ieuStallCycles)
            reg.set(p + ".ieu_stall_cycles", l.ieuStallCycles);
        if (l.feuStallCycles)
            reg.set(p + ".feu_stall_cycles", l.feuStallCycles);
        if (l.ifuStallCycles)
            reg.set(p + ".ifu_stall_cycles", l.ifuStallCycles);
        for (size_t c = 1; c < static_cast<size_t>(StallCause::kCount);
             ++c) {
            uint64_t v = l.stalls.byCause[c];
            if (v)
                reg.set(p + ".stall." +
                            stallCauseName(static_cast<StallCause>(c)),
                        v);
        }
    }
}

namespace {

/**
 * Occupancy series order (fixed, also the sample order):
 * 0-3 in_fifo[side][f], 4-7 out_fifo[side][f], 8-9 cc_fifo[side],
 * 10-11 inst_q (ieu, feu), 12-13 store_q[side].
 */
constexpr int kNumOcc = 14;
const char *const kOccNames[kNumOcc] = {
    "in_fifo.int0",  "in_fifo.int1",  "in_fifo.flt0",  "in_fifo.flt1",
    "out_fifo.int0", "out_fifo.int1", "out_fifo.flt0", "out_fifo.flt1",
    "cc_fifo.int",   "cc_fifo.flt",   "inst_q.ieu",    "inst_q.feu",
    "store_q.int",   "store_q.flt",
};

/**
 * Time-series channel layout. The cumulative block is sampled as
 * end-of-cycle deltas against a previous-cycle snapshot, so window
 * counts telescope to the final aggregates exactly; the level block
 * (occupancies, live streams) is a per-cycle sum whose window mean is
 * count / window cycles. simTimeSeriesChannels() and
 * Impl::tsCumulative() must agree on this order.
 */
constexpr size_t kTsScalars = 17;
constexpr size_t kTsStallCauses =
    static_cast<size_t>(StallCause::kCount) - 1;
constexpr size_t kTsCumulative = kTsScalars + 3 * kTsStallCauses;
constexpr size_t kTsChannels =
    kTsCumulative + static_cast<size_t>(kNumOcc) + 1;

} // anonymous namespace

std::vector<std::string>
simTimeSeriesChannels()
{
    std::vector<std::string> names = {
        "insts_dispatched",
        "loads_issued",
        "stores_committed",
        "stream.elements_in",
        "stream.elements_out",
        "vector_elements",
        "ieu.executed",
        "ieu.stall_cycles",
        "feu.executed",
        "feu.stall_cycles",
        "ifu.executed",
        "ifu.stall_cycles",
        "ieu.idle_empty_cycles",
        "feu.idle_empty_cycles",
        "scu.startup_wait_cycles",
        "scu.port_contention_cycles",
        "store.port_contention_cycles",
    };
    WS_ASSERT(names.size() == kTsScalars, "channel layout drift");
    for (const char *u : {"ieu", "feu", "ifu"})
        for (size_t c = 1; c < static_cast<size_t>(StallCause::kCount);
             ++c)
            names.push_back(std::string(u) + ".stall." +
                            stallCauseName(static_cast<StallCause>(c)));
    for (int i = 0; i < kNumOcc; ++i)
        names.push_back(std::string("occ.") + kOccNames[i]);
    names.push_back("scu.active");
    WS_ASSERT(names.size() == kTsChannels, "channel layout drift");
    return names;
}

struct Simulator::Impl
{
    SimConfig cfg;
    /** Decoded code and the memory image. */
    rtl::Executable exe;

    // ---- dynamic state ----
    int64_t rreg[32] = {};
    double freg[32] = {};

    /** Per-instruction facts, decoded once (see InstFacts). */
    std::vector<InstFacts> facts;

    Ring<Val> inFifo[2][2];
    Ring<Val> outFifo[2][2];
    Ring<bool> ccFifo[2];

    struct QEntry
    {
        int64_t pc;
        int64_t seq;
        /** Enqueue attributed to an active output stream at dispatch. */
        bool streamEnq = false;
        int32_t ev = -1; ///< critpath dispatch event
    };
    Ring<QEntry> unitQ[2]; // 0 = IEU, 1 = FEU
    uint64_t unitBusyUntil[2] = {0, 0};

    struct ReadReq
    {
        uint64_t deliverAt;
        int64_t addr;
        int size;
        DataType type;
        int64_t seq;
        int scu = -1; // owning stream, or -1 for a scalar load
        int32_t ev = -1;   ///< critpath issue event
        int loop = -1;     ///< loop id of the issuing instruction
        bool ordered = false; ///< was ever held behind an older store
    };
    /** Not capped by any depth: scalar loads reserve no FIFO slot. */
    Ring<ReadReq> inflight[2][2];

    struct StoreReq
    {
        int64_t addr;
        int size;
        DataType type;
        int64_t seq;
        int32_t ev = -1; ///< critpath address-generation event
        int loop = -1;
    };
    Ring<StoreReq> storeQ[2];

    struct Stream
    {
        bool active = false;
        bool input = true;
        int side = 0;
        int fifo = 0;
        int64_t base = 0;
        int64_t stride = 0;
        int64_t count = -1; ///< -1 = unbounded
        int64_t issued = 0; ///< in: reads issued
        int64_t done = 0;   ///< in: delivered; out: writes committed
        DataType type = DataType::I64;
        int64_t seq = 0;    ///< dispatch sequence
        bool closed = false;
        /**
         * For output streams: IFU dispatch sequence of each enqueue
         * already dispatched, indexed by cell position minus `done`.
         * Memory ordering: a load must wait only for cells whose
         * producing enqueue was dispatched before the load (true
         * dependences); cells whose enqueue is not yet dispatched
         * follow the load in program order (anti-dependences) and must
         * not stall it.
         */
        Ring<int64_t> enqSeqs;
        int64_t dispatchedEnqueues = 0;
        uint64_t readyAt = 0; ///< SCU startup latency gate

        /** @name Critpath bookkeeping (unused when recording is off) */
        /// @{
        int loopId = -1;        ///< loop of the starting instruction
        int32_t startEv = -1;   ///< stream-start dispatch event
        int32_t lastIssueEv = -1; ///< serial chain through this SCU
        int32_t lastElemEv = -1;  ///< last delivery/write event
        /** Retire event of this *slot's* previous occupant. */
        int32_t slotRetireEv = -1;
        /// @}
    };
    std::vector<Stream> scus;

    /** Vector execution unit: one element-wise FIFO operation. */
    struct VeuState
    {
        bool active = false;
        Op op = Op::Add;
        bool copy = false;
        int dstSide = 0, dstFifo = 0;
        int s1Side = 0, s1Fifo = 0;
        bool src2IsFifo = false;
        int s2Side = 0, s2Fifo = 0;
        Val src2Val;
        int64_t remaining = 0;
    } veu;

    int64_t mirror[2][2] = {{-1, -1}, {-1, -1}};

    int64_t pc = 0;
    std::vector<int64_t> raStack;
    bool returned = false;
    uint64_t now = 0;
    int64_t seqCounter = 0;
    int portsUsed = 0;
    SimStats stats;

    // ---- watchdog state ----
    /**
     * Progress events the SimStats counters miss: values delivered
     * from memory into input FIFOs (a scalar load's delivery bumps
     * nothing else) and stream read requests issued. Together with
     * the dispatch/retire/store/stream counters these make the
     * watchdog's progress sum monotone over every way the machine
     * can move.
     */
    uint64_t deliveredValues = 0;
    uint64_t scuReadsIssued = 0;
    uint64_t lastProgressSum = 0;
    uint64_t lastProgressCycle = 0;
    /** Last observed per-unit stall causes (for fault forensics). */
    StallCause lastUnitCause[2] = {StallCause::None, StallCause::None};
    StallCause lastIfuCause = StallCause::None;

    // ---- chaos state ----
    /** Timing-only perturbation; architectural results must not move. */
    bool chaos = false;
    support::Rng chaosRng{0};

    /** Per-request memory latency jitter under chaos (0 otherwise). */
    uint64_t
    chaosLatency()
    {
        return chaos ? chaosRng.nextBelow(4) : 0;
    }

    uint64_t
    progressSum() const
    {
        return stats.instsDispatched + stats.ifuExecuted +
               stats.ieuExecuted + stats.feuExecuted +
               stats.storesCommitted + stats.streamElementsIn +
               stats.streamElementsOut + stats.vectorElements +
               stats.loadsIssued + deliveredValues + scuReadsIssued;
    }

    // ---- observability state ----
    obs::Histogram occ[kNumOcc];

    /**
     * Cumulative-counter snapshot from the previous tsSample() call;
     * sized kTsCumulative when cfg.timeseries is set, else empty.
     */
    std::vector<uint64_t> tsPrev;

    /** Per-series last emitted trace counter value (dedup on change). */
    double traceLast[kNumOcc + 5];
    /** Trace track ids for the SCU slots; stream start bookkeeping. */
    std::vector<int> scuTid;
    std::vector<uint64_t> scuStartCycle;
    std::vector<std::string> scuEventName;
    std::vector<bool> scuWasActive;

    // ---- critical-path DAG recording ----
    /**
     * Alias of cfg.critpath; null when recording is off, which keeps
     * every instrumentation site behind one predictable branch.
     *
     * Mapping of machine actions to DAG events (one per unit of
     * forward progress, created in phase order so arena order is
     * topological):
     *  - IFU: one event per instruction the IFU processes (control
     *    transfer, sync conversion, stream start/stop, vec-op, or a
     *    dispatch into a unit queue), serially chained with latency
     *    1/fetchWidth.
     *  - IEU/FEU: one event per executed instruction, with deps on
     *    its dispatch (latency 1: dispatch is the last phase), the
     *    unit's previous exec (1, or divLatency after a divide), and
     *    every FIFO operand it pops.
     *  - mem: one event per delivered read (dep on the issue event
     *    with memLatency) and per committed store.
     *  - scu: one event per issued stream read / written element,
     *    chained at 1/scuBurst with a scu_startup dep on the start.
     *  - veu: one event per vector element, chained at 1/veuLanes.
     * Queue back-pressure is recorded as capacity deps against the 14
     * occupancy queues (kOccNames order); pops are recorded at the
     * consuming event so depth-changing what-ifs re-resolve honestly.
     */
    obs::CritPath *cp = nullptr;
    /** Unit ids (registered in the ctor). */
    uint8_t cpuIfu = 0, cpuIeu = 0, cpuFeu = 0, cpuScu = 0,
            cpuVeu = 0, cpuMem = 0, cpuEnd = 0;
    /** StallCause -> recorder cause id ([0] = reserved start). */
    uint8_t cpCause[static_cast<size_t>(StallCause::kCount)] = {};
    /** Model-edge causes outside the stall taxonomy. */
    uint8_t cpcExec = 0, cpcFetch = 0, cpcMemLat = 0, cpcMemOrder = 0,
            cpcScuStartup = 0, cpcScuIssue = 0, cpcVeuLane = 0,
            cpcStoreAddr = 0, cpcDrain = 0;
    /** Queue ids, kOccNames index order. */
    int cpQ[kNumOcc] = {};

    /** Producer event per buffered value, parallel to the FIFOs. */
    Ring<int32_t> inFifoEv[2][2];
    Ring<int32_t> outFifoEv[2][2];
    Ring<int32_t> ccFifoEv[2];

    int32_t cpCurEv = -1;      ///< latest event (deps attach to it)
    int32_t lastIfuEv = -1;
    int32_t lastExecEv[2] = {-1, -1};
    float nextSerialLat[2] = {1.0f, 1.0f}; ///< divLatency after a div
    int32_t lastStoreCommitEv = -1;
    int32_t lastDeliveryEv = -1;
    int32_t lastVeuEv = -1;
    int32_t veuOpEv = -1;      ///< VecOp dispatch event
    int32_t veuPrevElemEv = -1;
    int veuLoop = -1;
    /** Retire event of the last retired stream per [side][fifo][in]. */
    int32_t lastRetire[2][2][2] = {{{-1, -1}, {-1, -1}},
                                   {{-1, -1}, {-1, -1}}};
    /** Last stall observed per unit since its previous exec. */
    StallCause unitWaitCause[2] = {StallCause::None, StallCause::None};
    /** Last IFU stall observed before the next IFU event. */
    StallCause ifuWaitCauseCp = StallCause::None;

    int cpQIn(int s, int f) const { return cpQ[s * 2 + f]; }
    int cpQOut(int s, int f) const { return cpQ[4 + s * 2 + f]; }
    int cpQCc(int s) const { return cpQ[8 + s]; }
    int cpQInst(int u) const { return cpQ[10 + u]; }
    int cpQStore(int s) const { return cpQ[12 + s]; }

    uint8_t
    cpWait(StallCause c) const
    {
        return c == StallCause::None ? 0
                                     : cpCause[static_cast<size_t>(c)];
    }

    int32_t
    cpEvent(uint8_t unit, int loop, uint8_t wait)
    {
        cpCurEv = cp->event(now, unit, loop, wait);
        return cpCurEv;
    }

    /**
     * Record the latest event popping one value from inFifo[s][f]:
     * a data dep on the producer plus the capacity pop that frees the
     * slot. Called right where the simulator pops the value ring.
     */
    void
    cpPopIn(int s, int f)
    {
        int32_t prod = -1;
        if (!inFifoEv[s][f].empty()) {
            prod = inFifoEv[s][f].front();
            inFifoEv[s][f].pop_front();
        }
        cp->dep(prod,
                cpCause[static_cast<size_t>(StallCause::DataFifoEmpty)],
                0.0f);
        cp->pop(cpQIn(s, f), cpCurEv);
    }

    /** Same for outFifo[s][f] (store commit, out-stream write). */
    void
    cpPopOut(int s, int f)
    {
        int32_t prod = -1;
        if (!outFifoEv[s][f].empty()) {
            prod = outFifoEv[s][f].front();
            outFifoEv[s][f].pop_front();
        }
        cp->dep(prod,
                cpCause[static_cast<size_t>(StallCause::DataFifoEmpty)],
                0.0f);
        cp->pop(cpQOut(s, f), cpCurEv);
    }

    /**
     * Note a register write by event @p ev that lands in a CC or
     * output FIFO: capacity dep plus producer bookkeeping. Pops for
     * these queues happen in *later* phases of the cycle, so a pop at
     * cycle t frees the slot for a push at t+1 (latency 1).
     */
    void
    cpNoteWrite(const InstFacts &f, int32_t ev)
    {
        if (f.dst == Dst::Cc) {
            cp->pushDep(
                cpQCc(f.side),
                cpCause[static_cast<size_t>(StallCause::CcFifoFull)],
                1.0f);
            ccFifoEv[f.side].push_back(ev);
        } else if (f.dst == Dst::Fifo) {
            cp->pushDep(
                cpQOut(f.side, f.index),
                cpCause[static_cast<size_t>(StallCause::DataFifoFull)],
                1.0f);
            outFifoEv[f.side][f.index].push_back(ev);
        }
    }

    /** Exec event for the head of unit queue @p u (IEU/FEU). */
    int32_t
    cpUnitExecEvent(int u, const Inst &inst)
    {
        uint8_t wait = cpWait(unitWaitCause[u]);
        unitWaitCause[u] = StallCause::None;
        int32_t ev = cpEvent(u ? cpuFeu : cpuIeu, inst.loopId, wait);
        // Dispatch happens in the cycle's *last* phase, so the
        // earliest exec is the next cycle (latency 1).
        cp->dep(unitQ[u].front().ev,
                cpCause[static_cast<size_t>(
                    StallCause::InstQueueEmpty)],
                1.0f);
        cp->dep(lastExecEv[u], cpcExec, nextSerialLat[u]);
        nextSerialLat[u] = 1.0f;
        lastExecEv[u] = ev;
        cp->pop(cpQInst(u), ev);
        return ev;
    }

    /** IFU event for the instruction at pc (serial fetch chain). */
    int32_t
    cpIfuEvent(const Inst &inst)
    {
        uint8_t wait = cpWait(ifuWaitCauseCp);
        ifuWaitCauseCp = StallCause::None;
        int32_t ev = cpEvent(cpuIfu, inst.loopId, wait);
        cp->dep(lastIfuEv, cpcFetch,
                1.0f / static_cast<float>(cfg.fetchWidth));
        lastIfuEv = ev;
        return ev;
    }

    /** Mark stream @p s retired by @p ev (slot and FIFO ownership). */
    void
    cpRetire(Stream &s, int32_t ev)
    {
        int32_t r = ev >= 0 ? ev : s.startEv;
        lastRetire[s.side][s.fifo][s.input ? 1 : 0] = r;
        s.slotRetireEv = r;
    }

    Impl(const rtl::Program &p, SimConfig c)
        : cfg(c), exe(p), chaos(c.chaosSeed != 0),
          chaosRng(c.chaosSeed)
    {
        decode();
        auto depth = [](int d) { return static_cast<size_t>(std::max(d, 1)); };
        for (int s = 0; s < 2; ++s) {
            for (int f = 0; f < 2; ++f)
                for (auto *q : {&inFifo[s][f], &outFifo[s][f]})
                    q->reserve(depth(cfg.dataFifoDepth));
            inflight[s][0].reserve(depth(cfg.dataFifoDepth));
            inflight[s][1].reserve(depth(cfg.dataFifoDepth));
            ccFifo[s].reserve(depth(cfg.ccFifoDepth));
            unitQ[s].reserve(depth(cfg.instQueueDepth));
            storeQ[s].reserve(depth(cfg.storeQueueDepth));
        }
        scus.resize(cfg.numSCUs);
        rreg[30] = rtl::kInitialSp;
        for (double &v : traceLast)
            v = -1.0;
        if (cfg.trace) {
            scuStartCycle.resize(scus.size(), 0);
            scuEventName.resize(scus.size());
            scuWasActive.resize(scus.size(), false);
            for (size_t i = 0; i < scus.size(); ++i)
                scuTid.push_back(
                    cfg.trace->track(strFormat("SCU %zu", i)));
        }
        if (cfg.timeseries) {
            WS_ASSERT(cfg.timeseries->channels() == kTsChannels,
                      "time series not built from "
                      "simTimeSeriesChannels()");
            tsPrev.assign(kTsCumulative, 0);
        }
        if (cfg.critpath) {
            cp = cfg.critpath;
            cpuIfu = cp->unit("ifu");
            cpuIeu = cp->unit("ieu");
            cpuFeu = cp->unit("feu");
            cpuScu = cp->unit("scu");
            cpuVeu = cp->unit("veu");
            cpuMem = cp->unit("mem");
            cpuEnd = cp->unit("end");
            cpCause[0] = obs::CritPath::kCauseStart;
            for (size_t c2 = 1;
                 c2 < static_cast<size_t>(StallCause::kCount); ++c2)
                cpCause[c2] = cp->cause(
                    stallCauseName(static_cast<StallCause>(c2)));
            cpcExec = cp->cause("execute");
            cpcFetch = cp->cause("fetch");
            cpcMemLat = cp->cause("mem_latency");
            cpcMemOrder = cp->cause("mem_order");
            cpcScuStartup = cp->cause("scu_startup");
            cpcScuIssue = cp->cause("scu_issue");
            cpcVeuLane = cp->cause("veu_lane");
            cpcStoreAddr = cp->cause("store_addr");
            cpcDrain = cp->cause("drain");
            for (int i = 0; i < kNumOcc; ++i) {
                int depth = i < 8    ? cfg.dataFifoDepth
                            : i < 10 ? cfg.ccFifoDepth
                            : i < 12 ? cfg.instQueueDepth
                                     : cfg.storeQueueDepth;
                cpQ[i] = cp->queue(kOccNames[i], depth, i < 8);
            }
        }
    }

    /** Fill facts and loopBuckets from the decoded program. */
    void
    decode()
    {
        using K = rtl::OperandCell::Kind;
        std::vector<int> loopIds = {-1};
        for (const rtl::DecodedInst &d : exe.code)
            if (d.inst->loopId != loopIds.back())
                loopIds.push_back(d.inst->loopId);
        std::sort(loopIds.begin(), loopIds.end());
        loopIds.erase(std::unique(loopIds.begin(), loopIds.end()),
                      loopIds.end());
        for (int id : loopIds)
            loopBuckets.emplace_back().loopId = id;
        facts.reserve(exe.code.size());
        for (const rtl::DecodedInst &d : exe.code) {
            const Inst &inst = *d.inst;
            InstFacts &f = facts.emplace_back();
            f.engine = engineOf(inst);
            f.bucket = static_cast<uint32_t>(
                std::lower_bound(loopIds.begin(), loopIds.end(),
                                 inst.loopId) -
                loopIds.begin());
            if (inst.kind == InstKind::Assign) {
                RegFile file = inst.dst->regFile();
                int idx = inst.dst->regIndex();
                f.side = file == RegFile::Flt ? 1 : 0;
                f.index = static_cast<uint8_t>(idx);
                if (file == RegFile::CC) {
                    f.dst = Dst::Cc;
                    f.side = idx == 1 ? 1 : 0;
                } else if (idx != 31) {
                    f.dst = idx <= 1 ? Dst::Fifo : Dst::Reg;
                }
            }
            for (uint32_t k = d.src.begin; k < d.src.end; ++k) {
                const rtl::OperandCell &c = exe.operands[k];
                f.divides |= c.kind == K::Bin &&
                             (c.op == Op::Div || c.op == Op::Rem);
            }
            for (rtl::Operand o : {d.src, d.addr})
                for (uint32_t k = o.begin; k < o.end; ++k) {
                    const rtl::OperandCell &c = exe.operands[k];
                    if (c.kind == K::Reg && (c.i == 0 || c.i == 1) &&
                            (c.file == RegFile::Int ||
                             c.file == RegFile::Flt)) {
                        uint8_t &n = f.needs[c.file == RegFile::Flt][c.i];
                        WS_ASSERT(n < UINT8_MAX, "too many FIFO reads");
                        ++n;
                    }
                }
        }
    }

    /** Current occupancy of series @p i (see kOccNames). */
    size_t
    occValue(int i) const
    {
        if (i < 4)
            return inFifo[i / 2][i % 2].size();
        if (i < 8)
            return outFifo[(i - 4) / 2][(i - 4) % 2].size();
        if (i < 10)
            return ccFifo[i - 8].size();
        if (i < 12)
            return unitQ[i - 10].size();
        return storeQ[i - 12].size();
    }

    void
    sampleOccupancy()
    {
        for (int i = 0; i < kNumOcc; ++i)
            occ[i].add(static_cast<int64_t>(occValue(i)));
    }

    /**
     * Emit this cycle's trace samples: occupancy / activity counters
     * (deduplicated on change) and stream duration events on the SCU
     * tracks.
     */
    void
    traceCycle(uint64_t dispatched, uint64_t ieuExec, uint64_t feuExec)
    {
        obs::TraceWriter &tw = *cfg.trace;
        auto sample = [&](int slot, const char *name, double v) {
            if (traceLast[slot] != v) {
                traceLast[slot] = v;
                tw.counter(name, now, v);
            }
        };
        for (int i = 0; i < kNumOcc; ++i)
            sample(i, kOccNames[i],
                   static_cast<double>(occValue(i)));
        sample(kNumOcc + 0, "ifu.dispatched",
               static_cast<double>(dispatched));
        sample(kNumOcc + 1, "busy.ieu", static_cast<double>(ieuExec));
        sample(kNumOcc + 2, "busy.feu", static_cast<double>(feuExec));
        sample(kNumOcc + 3, "busy.veu", veu.active ? 1.0 : 0.0);
        int activeStreams = 0;
        for (const Stream &s : scus)
            activeStreams += s.active ? 1 : 0;
        sample(kNumOcc + 4, "scu.active",
               static_cast<double>(activeStreams));

        for (size_t i = 0; i < scus.size(); ++i) {
            const Stream &s = scus[i];
            if (s.active && !scuWasActive[i]) {
                scuStartCycle[i] = now;
                scuEventName[i] = strFormat(
                    "%s %s.f%d n=%lld stride=%lld",
                    s.input ? "Sin" : "Sout",
                    s.side ? "flt" : "int", s.fifo,
                    static_cast<long long>(s.count),
                    static_cast<long long>(s.stride));
            } else if (!s.active && scuWasActive[i]) {
                tw.complete(scuTid[i], scuEventName[i],
                            scuStartCycle[i],
                            std::max<uint64_t>(now - scuStartCycle[i],
                                               1));
            }
            scuWasActive[i] = s.active;
        }
    }

    /**
     * Fill @p out with the cumulative counters in channel order (the
     * first kTsCumulative entries of simTimeSeriesChannels()).
     */
    void
    tsCumulative(uint64_t out[kTsCumulative]) const
    {
        size_t i = 0;
        out[i++] = stats.instsDispatched;
        out[i++] = stats.loadsIssued;
        out[i++] = stats.storesCommitted;
        out[i++] = stats.streamElementsIn;
        out[i++] = stats.streamElementsOut;
        out[i++] = stats.vectorElements;
        out[i++] = stats.ieuExecuted;
        out[i++] = stats.ieuStallCycles;
        out[i++] = stats.feuExecuted;
        out[i++] = stats.feuStallCycles;
        out[i++] = stats.ifuExecuted;
        out[i++] = stats.ifuStallCycles;
        out[i++] = stats.ieuIdleCycles;
        out[i++] = stats.feuIdleCycles;
        out[i++] = stats.scuStartupWaitCycles;
        out[i++] = stats.scuPortContentionCycles;
        out[i++] = stats.storePortContentionCycles;
        const UnitStallStats *units[3] = {&stats.ieuStalls,
                                          &stats.feuStalls,
                                          &stats.ifuStalls};
        for (const UnitStallStats *u : units)
            for (size_t c = 1;
                 c < static_cast<size_t>(StallCause::kCount); ++c)
                out[i++] = u->byCause[c];
        WS_ASSERT(i == kTsCumulative, "channel layout drift");
    }

    /**
     * Flight-recorder sample at the end of cycle `now`: cumulative
     * deltas against the previous snapshot plus the level channels.
     * Deltas telescope, so per-window sums equal the end-of-run
     * aggregates exactly — the invariant wmreport --timeline checks.
     */
    void
    tsSample()
    {
        obs::TimeSeries &ts = *cfg.timeseries;
        ts.advanceTo(now);
        uint64_t cum[kTsCumulative];
        tsCumulative(cum);
        for (size_t i = 0; i < kTsCumulative; ++i) {
            uint64_t d = cum[i] - tsPrev[i];
            if (d) {
                ts.add(i, d);
                tsPrev[i] = cum[i];
            }
        }
        for (int i = 0; i < kNumOcc; ++i) {
            size_t v = occValue(i);
            if (v)
                ts.add(kTsCumulative + static_cast<size_t>(i),
                       static_cast<uint64_t>(v));
        }
        uint64_t active = 0;
        for (const Stream &s : scus)
            active += s.active ? 1 : 0;
        if (active)
            ts.add(kTsChannels - 1, active);
    }

    /** Close out duration events for streams still active at exit. */
    void
    traceFinish()
    {
        if (!cfg.trace)
            return;
        for (size_t i = 0; i < scus.size(); ++i)
            if (scuWasActive[i])
                cfg.trace->complete(
                    scuTid[i], scuEventName[i], scuStartCycle[i],
                    std::max<uint64_t>(now - scuStartCycle[i], 1));
    }

    // ---- register / FIFO access during evaluation ----

    /** True when the input FIFOs hold every read @p needs asks for. */
    bool
    fifosHold(const uint8_t needs[2][2]) const
    {
        for (int s = 0; s < 2; ++s)
            for (int f = 0; f < 2; ++f)
                if (needs[s][f] > inFifo[s][f].size())
                    return false;
        return true;
    }

    /** Evaluate operand @p o, popping FIFO operands in DFS order. */
    Val
    eval(rtl::Operand o)
    {
        return exe.eval(o, [this](RegFile file, int idx) {
            int s = file == RegFile::Flt ? 1 : 0;
            Val v;
            if (idx == 0 || idx == 1) {
                WS_ASSERT(!inFifo[s][idx].empty(),
                          "FIFO underflow (availability pre-checked)");
                v = inFifo[s][idx].front();
                inFifo[s][idx].pop_front();
                if (cp)
                    cpPopIn(s, idx);
                v.isFloat = s == 1;
            } else if (s == 1) {
                v.isFloat = true;
                v.f = idx == 31 ? 0.0 : freg[idx];
            } else {
                v.i = idx == 31 ? 0 : rreg[idx];
            }
            return v;
        });
    }

    /** Write @p v to the destination of the Assign @p f describes. */
    void
    writeReg(const InstFacts &f, const Val &v)
    {
        switch (f.dst) {
          case Dst::None:
            return; // hardwired zero
          case Dst::Cc:
            ccFifo[f.side].push_back(v.isFloat ? v.f != 0.0 : v.i != 0);
            return;
          case Dst::Fifo: {
            Val out = v;
            if (f.side) {
                out.isFloat = true;
                if (!v.isFloat)
                    out.f = static_cast<double>(v.i);
            } else {
                out.isFloat = false;
                if (v.isFloat)
                    out.i = truncToInt64(v.f);
            }
            outFifo[f.side][f.index].push_back(out);
            return;
          }
          case Dst::Reg:
            if (f.side)
                freg[f.index] = v.isFloat ? v.f : static_cast<double>(v.i);
            else
                rreg[f.index] = v.isFloat ? truncToInt64(v.f) : v.i;
            return;
        }
    }

    // ---- store-ordering checks ----

    /** Is there a pending store older than @p seq overlapping the range? */
    bool
    olderStorePending(int64_t addr, int size, int64_t seq)
    {
        for (int s = 0; s < 2; ++s)
            for (const StoreReq &st : storeQ[s])
                if (st.seq < seq && st.addr < addr + size &&
                        addr < st.addr + st.size) {
                    return true;
                }
        for (const Stream &scu : scus) {
            if (!scu.active || scu.input)
                continue;
            // Pending cells: positions [done, dispatchedEnqueues). A
            // cell stalls the access only when its producing enqueue
            // was dispatched before the access (true dependence).
            int64_t limit = scu.dispatchedEnqueues;
            int esz = rtl::dataTypeSize(scu.type);
            if (scu.stride == 0)
                continue;
            // Only a handful of positions can overlap the access;
            // enumerate the candidate k range analytically.
            int64_t s = scu.stride;
            int64_t first = (addr - esz + 1) - scu.base;
            int64_t last = (addr + size - 1) - scu.base;
            if (s < 0)
                std::swap(first, last);
            auto floorDiv = [](int64_t a, int64_t b) {
                int64_t q = a / b;
                if ((a % b != 0) && ((a < 0) != (b < 0)))
                    --q;
                return q;
            };
            int64_t kLo = floorDiv(first + (s > 0 ? s - 1 : s + 1), s);
            int64_t kHi = floorDiv(last, s);
            if (kLo > kHi)
                std::swap(kLo, kHi);
            kLo = std::max<int64_t>(kLo - 1, scu.done);
            kHi = std::min<int64_t>(kHi + 1, limit - 1);
            for (int64_t k = kLo; k <= kHi; ++k) {
                int64_t cell = scu.base + k * scu.stride;
                if (cell < addr + size && addr < cell + esz) {
                    size_t idx = static_cast<size_t>(k - scu.done);
                    if (idx < scu.enqSeqs.size() &&
                            scu.enqSeqs[idx] < seq) {
                        return true;
                    }
                }
            }
        }
        return false;
    }

    // ---- stream helpers ----

    Stream *
    findStream(int side, int fifo, bool input)
    {
        for (Stream &s : scus)
            if (s.active && s.side == side && s.fifo == fifo &&
                    s.input == input) {
                return &s;
            }
        return nullptr;
    }

    void
    applyStreamStop(const Inst &inst)
    {
        int side = inst.side == UnitSide::Flt ? 1 : 0;
        bool input = inst.when;
        Stream *s = findStream(side, inst.fifo, input);
        if (!s)
            return; // already finished: a stop is idempotent
        if (input) {
            // Cancel: discard prefetched and in-flight data.
            s->active = false;
            if (cp) {
                // The discarded values (buffered and still in flight)
                // were all capacity pushes; record the stop event as
                // their freeing pop so ordinal bookkeeping matches
                // the machine's occupancy.
                // Scalar loads reserve no slot until delivery, so
                // only stream requests count as outstanding pushes.
                size_t discarded = inFifo[side][inst.fifo].size();
                for (const ReadReq &rq : inflight[side][inst.fifo])
                    if (rq.scu >= 0)
                        ++discarded;
                for (size_t k = 0; k < discarded; ++k)
                    cp->pop(cpQIn(side, inst.fifo), cpCurEv);
                inFifoEv[side][inst.fifo].clear();
                cpRetire(*s, cpCurEv);
            }
            inFifo[side][inst.fifo].clear();
            inflight[side][inst.fifo].clear();
        } else {
            // Output: accept no more data; drain what is enqueued.
            s->closed = true;
        }
    }

    // ---- per-cycle phases ----

    void
    deliverReads()
    {
        for (int side = 0; side < 2; ++side) {
            for (int f = 0; f < 2; ++f) {
                auto &q = inflight[side][f];
                while (!q.empty()) {
                    ReadReq &req = q.front();
                    if (req.deliverAt > now)
                        break;
                    if (req.scu >= 0 && !scus[req.scu].active) {
                        // Stream cancelled after retiring via the
                        // out-of-bounds clamp: free the reserved slot.
                        if (cp) {
                            int32_t ev = cpEvent(
                                cpuMem, scus[req.scu].loopId, 0);
                            cp->dep(ev >= 0 ? req.ev : -1, cpcMemLat,
                                    static_cast<float>(
                                        cfg.memLatency));
                            cp->pop(cpQIn(side, f), ev);
                        }
                        q.pop_front(); // stream cancelled: discard
                        continue;
                    }
                    if (olderStorePending(req.addr, req.size,
                                          req.seq)) {
                        req.ordered = true;
                        break;
                    }
                    if (static_cast<int>(inFifo[side][f].size()) >=
                            cfg.dataFifoDepth) {
                        break;
                    }
                    Val v = exe.read(req.addr, req.type);
                    inFifo[side][f].push_back(v);
                    if (cp) {
                        int32_t ev = cpEvent(
                            cpuMem,
                            req.scu >= 0 ? scus[req.scu].loopId
                                         : req.loop,
                            0);
                        cp->dep(req.ev, cpcMemLat,
                                static_cast<float>(cfg.memLatency));
                        if (req.ordered)
                            // Held behind an older overlapping store;
                            // the most recent commit bounds the wait.
                            cp->dep(lastStoreCommitEv, cpcMemOrder,
                                    1.0f);
                        if (req.scu < 0)
                            // Scalar loads reserve their FIFO slot at
                            // delivery; the freeing pop (stepUnit, a
                            // later phase) enables delivery next
                            // cycle.
                            cp->pushDep(
                                cpQIn(side, f),
                                cpCause[static_cast<size_t>(
                                    StallCause::DataFifoFull)],
                                1.0f);
                        inFifoEv[side][f].push_back(ev);
                        lastDeliveryEv = ev;
                        if (req.scu >= 0)
                            scus[req.scu].lastElemEv = ev;
                    }
                    ++deliveredValues;
                    if (req.scu >= 0) {
                        ++scus[req.scu].done;
                        ++stats.streamElementsIn;
                    }
                    q.pop_front();
                }
            }
        }
    }

    void
    commitStores()
    {
        for (int side = 0; side < 2; ++side) {
            if (portsUsed >= cfg.memPorts) {
                if (!storeQ[0].empty() || !storeQ[1].empty())
                    ++stats.storePortContentionCycles;
                return;
            }
            if (storeQ[side].empty())
                continue;
            // Output FIFO 0 feeds scalar stores unless a stream claims
            // it (the compiler prevents that combination).
            if (findStream(side, 0, /*input=*/false))
                continue;
            if (outFifo[side][0].empty())
                continue;
            StoreReq st = storeQ[side].front();
            exe.write(st.addr, st.type, outFifo[side][0].front());
            if (cp) {
                // Commit runs after stepUnit in the same cycle, so
                // both the address generation and the data enqueue
                // can commit the cycle they execute (latency 0).
                int32_t ev = cpEvent(cpuMem, st.loop, 0);
                cp->dep(st.ev, cpcStoreAddr, 0.0f);
                cpPopOut(side, 0);
                cp->pop(cpQStore(side), ev);
                lastStoreCommitEv = ev;
            }
            storeQ[side].pop_front();
            outFifo[side][0].pop_front();
            ++portsUsed;
            ++stats.storesCommitted;
        }
    }

    void
    stepSCUs()
    {
        for (size_t i = 0; i < scus.size(); ++i) {
            Stream &s = scus[i];
            if (!s.active)
                continue;
            if (s.readyAt > now) {
                ++stats.scuStartupWaitCycles;
                continue; // still spinning up
            }
            if (portsUsed >= cfg.memPorts) {
                ++stats.scuPortContentionCycles;
                break;
            }
            if (s.input) {
                if (s.closed) {
                    s.active = false;
                    if (cp)
                        cpRetire(s, s.lastElemEv);
                    continue;
                }
                int64_t limit = s.count >= 0 ? s.count
                                             : INT64_MAX / 2;
                for (int burst = 0; burst < cfg.scuBurst; ++burst) {
                    if (portsUsed >= cfg.memPorts)
                        break;
                    if (s.issued >= limit)
                        break;
                    int inflightHere = static_cast<int>(
                        inflight[s.side][s.fifo].size());
                    int fifoHere = static_cast<int>(
                        inFifo[s.side][s.fifo].size());
                    if (inflightHere + fifoHere >= cfg.dataFifoDepth)
                        break; // no space reserved
                    ReadReq req;
                    req.deliverAt = now + cfg.memLatency +
                                    chaosLatency();
                    req.addr = s.base + s.issued * s.stride;
                    req.size = rtl::dataTypeSize(s.type);
                    req.type = s.type;
                    req.seq = s.seq;
                    req.scu = static_cast<int>(i);
                    // Bounds are checked at delivery; unbounded streams
                    // may legitimately run past the data they will
                    // never deliver, so clamp errors here.
                    if (req.addr < 0 ||
                            req.addr + req.size >
                                static_cast<int64_t>(exe.mem.size())) {
                        s.closed = true; // stop prefetching
                        break;
                    }
                    if (cp) {
                        int32_t ev = cpEvent(cpuScu, s.loopId, 0);
                        if (s.lastIssueEv >= 0)
                            cp->dep(s.lastIssueEv, cpcScuIssue,
                                    1.0f / static_cast<float>(
                                               cfg.scuBurst));
                        else
                            cp->dep(s.startEv, cpcScuStartup,
                                    static_cast<float>(
                                        cfg.scuStartupCycles));
                        // Issue reserves the FIFO slot; the freeing
                        // pop (stepUnit, an earlier phase) enables
                        // issue the same cycle.
                        cp->pushDep(
                            cpQIn(s.side, s.fifo),
                            cpCause[static_cast<size_t>(
                                StallCause::DataFifoFull)],
                            0.0f);
                        req.ev = ev;
                        s.lastIssueEv = ev;
                    }
                    inflight[s.side][s.fifo].push_back(req);
                    ++s.issued;
                    ++scuReadsIssued;
                    ++portsUsed;
                }
                if (s.issued >= limit && s.done >= limit) {
                    s.active = false; // retires when fully delivered
                    if (cp)
                        cpRetire(s, s.lastElemEv);
                }
            } else {
                auto &q = outFifo[s.side][s.fifo];
                for (int burst = 0; burst < cfg.scuBurst; ++burst) {
                    if (portsUsed >= cfg.memPorts)
                        break;
                    if (q.empty())
                        break;
                    if (s.count >= 0 && s.done >= s.count)
                        break;
                    Val v = q.front();
                    q.pop_front();
                    if (cp) {
                        int32_t ev = cpEvent(cpuScu, s.loopId, 0);
                        if (s.lastIssueEv >= 0)
                            cp->dep(s.lastIssueEv, cpcScuIssue,
                                    1.0f / static_cast<float>(
                                               cfg.scuBurst));
                        else
                            cp->dep(s.startEv, cpcScuStartup,
                                    static_cast<float>(
                                        cfg.scuStartupCycles));
                        cpPopOut(s.side, s.fifo);
                        s.lastIssueEv = ev;
                        s.lastElemEv = ev;
                    }
                    exe.write(s.base + s.done * s.stride, s.type, v);
                    ++s.done;
                    if (!s.enqSeqs.empty())
                        s.enqSeqs.pop_front();
                    ++portsUsed;
                    ++stats.streamElementsOut;
                }
                if ((s.count >= 0 && s.done >= s.count) ||
                        (s.closed && q.empty())) {
                    s.active = false;
                    if (cp)
                        cpRetire(s, s.lastElemEv);
                }
            }
        }
    }

    void
    stepVEU()
    {
        if (!veu.active)
            return;
        for (int lane = 0; lane < cfg.veuLanes; ++lane) {
            if (veu.remaining == 0)
                break;
            auto &in1 = inFifo[veu.s1Side][veu.s1Fifo];
            if (in1.empty())
                break;
            if (veu.src2IsFifo &&
                    inFifo[veu.s2Side][veu.s2Fifo].empty()) {
                break;
            }
            auto &out = outFifo[veu.dstSide][veu.dstFifo];
            if (static_cast<int>(out.size()) >= cfg.dataFifoDepth)
                break;
            int32_t vev = -1;
            if (cp) {
                vev = cpEvent(cpuVeu, veuLoop, 0);
                if (veuPrevElemEv >= 0)
                    cp->dep(veuPrevElemEv, cpcVeuLane,
                            1.0f / static_cast<float>(cfg.veuLanes));
                else
                    // Dispatch is the cycle's last phase; the first
                    // element runs the next cycle at the earliest.
                    cp->dep(veuOpEv, cpcExec, 1.0f);
                veuPrevElemEv = vev;
                lastVeuEv = vev;
                cp->pushDep(
                    cpQOut(veu.dstSide, veu.dstFifo),
                    cpCause[static_cast<size_t>(
                        StallCause::DataFifoFull)],
                    1.0f);
            }
            Val a = in1.front();
            in1.pop_front();
            if (cp)
                cpPopIn(veu.s1Side, veu.s1Fifo);
            Val r;
            if (veu.copy) {
                r = a;
            } else {
                Val b = veu.src2IsFifo
                            ? inFifo[veu.s2Side][veu.s2Fifo].front()
                            : veu.src2Val;
                if (veu.src2IsFifo) {
                    inFifo[veu.s2Side][veu.s2Fifo].pop_front();
                    if (cp)
                        cpPopIn(veu.s2Side, veu.s2Fifo);
                }
                if (const char *err = rtl::applyBin(veu.op, a, b, r))
                    throw ExecError(err);
            }
            if (veu.dstSide == 1 && !r.isFloat) {
                r.f = static_cast<double>(r.i);
                r.isFloat = true;
            }
            out.push_back(r);
            if (cp)
                outFifoEv[veu.dstSide][veu.dstFifo].push_back(vev);
            --veu.remaining;
            ++stats.vectorElements;
        }
        if (veu.remaining == 0)
            veu.active = false;
    }

    /**
     * Execute the head of a unit queue. Returns StallCause::None on
     * progress, otherwise the (single) cause that blocked the unit
     * this cycle.
     */
    StallCause
    stepUnit(int u)
    {
        if (unitQ[u].empty())
            return StallCause::InstQueueEmpty;
        if (unitBusyUntil[u] > now)
            return StallCause::DivBusy;
        const QEntry &q = unitQ[u].front();
        const rtl::DecodedInst &d = exe.code[q.pc];
        const InstFacts &f = facts[q.pc];
        const Inst &inst = *d.inst;

        switch (inst.kind) {
          case InstKind::Assign: {
            // An ordinary enqueue must wait while an output stream owns
            // the FIFO (its data would be swallowed as stream elements).
            if (!q.streamEnq && f.dst == Dst::Fifo &&
                    findStream(f.side, f.index, /*input=*/false))
                return StallCause::StreamOwnership;
            if (!fifosHold(f.needs))
                return StallCause::DataFifoEmpty; // wait for data
            if (f.dst == Dst::Cc &&
                    static_cast<int>(ccFifo[f.side].size()) >=
                        cfg.ccFifoDepth)
                return StallCause::CcFifoFull;
            if (f.dst == Dst::Fifo &&
                    static_cast<int>(outFifo[f.side][f.index].size()) >=
                        cfg.dataFifoDepth)
                return StallCause::DataFifoFull;
            int32_t ev = -1;
            if (cp) {
                ev = cpUnitExecEvent(u, inst);
                // An ordinary enqueue had to wait for any prior
                // out-stream on its FIFO to retire (retire is a later
                // phase: latency 1). Stale retires are never binding.
                if (!q.streamEnq && f.dst == Dst::Fifo)
                    cp->dep(lastRetire[f.side][f.index][0],
                            cpCause[static_cast<size_t>(
                                StallCause::StreamOwnership)],
                            1.0f);
            }
            writeReg(f, eval(d.src));
            if (cp)
                cpNoteWrite(f, ev);
            if (f.divides) {
                unitBusyUntil[u] = now + cfg.divLatency;
                nextSerialLat[u] =
                    static_cast<float>(cfg.divLatency);
            }
            break;
          }
          case InstKind::Load: {
            if (portsUsed >= cfg.memPorts)
                return StallCause::MemPortContention;
            bool flt = rtl::isFloatType(inst.memType);
            int side = flt ? 1 : 0;
            // Input FIFO 0 is the load-data channel; while a stream
            // owns it, scalar loads wait for the stream to retire so
            // the two data sources cannot interleave.
            if (findStream(side, 0, /*input=*/true))
                return StallCause::StreamOwnership;
            int32_t ev = -1;
            if (cp) {
                ev = cpUnitExecEvent(u, inst);
                cp->dep(lastRetire[side][0][1],
                        cpCause[static_cast<size_t>(
                            StallCause::StreamOwnership)],
                        1.0f);
            }
            Val a = eval(d.addr);
            ReadReq req;
            req.deliverAt = now + cfg.memLatency + chaosLatency();
            req.addr = a.i;
            req.size = rtl::dataTypeSize(inst.memType);
            req.type = inst.memType;
            req.seq = q.seq;
            req.ev = ev;
            req.loop = inst.loopId;
            exe.checkAddr(req.addr, req.size);
            inflight[side][0].push_back(req);
            ++portsUsed;
            ++stats.loadsIssued;
            break;
          }
          case InstKind::Store: {
            bool flt = rtl::isFloatType(inst.memType);
            int side = flt ? 1 : 0;
            if (static_cast<int>(storeQ[side].size()) >=
                    cfg.storeQueueDepth) {
                return StallCause::StoreQueueFull;
            }
            int32_t ev = -1;
            if (cp)
                ev = cpUnitExecEvent(u, inst);
            Val a = eval(d.addr);
            int size = rtl::dataTypeSize(inst.memType);
            exe.checkAddr(a.i, size);
            storeQ[side].push_back(
                {a.i, size, inst.memType, q.seq, ev, inst.loopId});
            if (cp)
                // Commit (the freeing pop) is a later phase: a pop at
                // cycle t admits the next store address at t+1.
                cp->pushDep(
                    cpQStore(side),
                    cpCause[static_cast<size_t>(
                        StallCause::StoreQueueFull)],
                    1.0f);
            break;
          }
          default:
            throw ExecError("non-unit instruction in unit queue");
        }
        unitQ[u].pop_front();
        if (u == 0)
            ++stats.ieuExecuted;
        else
            ++stats.feuExecuted;
        return StallCause::None;
    }

    bool
    unitsIdle() const
    {
        return unitQ[0].empty() && unitQ[1].empty() &&
               unitBusyUntil[0] <= now && unitBusyUntil[1] <= now;
    }

    /** Count an IFU stall cycle attributed to @p c. */
    void
    ifuStall(StallCause c)
    {
        lastIfuCause = c;
        ifuWaitCauseCp = c;
        ++stats.ifuStallCycles;
        ++stats.ifuStalls[c];
        if (curBucket) {
            ++curBucket->ifuStallCycles;
            ++curBucket->stalls[c];
        }
    }

    // ---- per-loop cycle attribution ----
    /**
     * One bucket per loop id of the program, ascending, bucket -1 first
     * (InstFacts::bucket indexes it). A bucket no cycle landed in is
     * left out of the stats.
     */
    std::vector<LoopCycleStats> loopBuckets;
    /** This cycle's bucket; valid only within one run() iteration. */
    LoopCycleStats *curBucket = nullptr;

    void
    fetchAndDispatch()
    {
        lastIfuCause = StallCause::None;
        if (returned)
            return;
        // Chaos jitters how many instructions the IFU processes this
        // cycle (at least one, so forward progress is preserved).
        int width = chaos ? 1 + static_cast<int>(chaosRng.nextBelow(
                                    static_cast<uint64_t>(
                                        cfg.fetchWidth)))
                          : cfg.fetchWidth;
        for (int budget = width; budget > 0; --budget) {
            if (returned)
                return;
            const rtl::DecodedInst &d = exe.fetch(pc);
            const InstFacts &f = facts[pc];
            const Inst &inst = *d.inst;
            switch (f.engine) {
              case Engine::IFU: {
                switch (inst.kind) {
                  case InstKind::Jump:
                    if (cp)
                        cpIfuEvent(inst);
                    pc = exe.target(pc);
                    break;
                  case InstKind::CondJump: {
                    int side = inst.side == UnitSide::Flt ? 1 : 0;
                    if (ccFifo[side].empty()) {
                        ifuStall(StallCause::CcFifoEmpty);
                        return; // wait for the compare
                    }
                    bool cc = ccFifo[side].front();
                    ccFifo[side].pop_front();
                    if (cp) {
                        int32_t ev = cpIfuEvent(inst);
                        int32_t prod = -1;
                        if (!ccFifoEv[side].empty()) {
                            prod = ccFifoEv[side].front();
                            ccFifoEv[side].pop_front();
                        }
                        // The compare executes in an earlier phase:
                        // same-cycle consumption is possible.
                        cp->dep(prod,
                                cpCause[static_cast<size_t>(
                                    StallCause::CcFifoEmpty)],
                                0.0f);
                        cp->pop(cpQCc(side), ev);
                    }
                    if (cc == inst.when)
                        pc = exe.target(pc);
                    else
                        ++pc;
                    break;
                  }
                  case InstKind::JumpStream: {
                    if (cp)
                        cpIfuEvent(inst);
                    int side = inst.side == UnitSide::Flt ? 1 : 0;
                    int64_t &m = mirror[side][inst.fifo];
                    if (m < 0)
                        throw ExecError("jump on unknown stream state");
                    if (m > 1) {
                        --m;
                        pc = exe.target(pc);
                    } else {
                        m = 0;
                        ++pc;
                    }
                    break;
                  }
                  case InstKind::Call: {
                    int64_t callee = exe.target(pc);
                    if (cp)
                        cpIfuEvent(inst);
                    raStack.push_back(pc + 1);
                    pc = callee;
                    break;
                  }
                  case InstKind::Return:
                    if (cp)
                        cpIfuEvent(inst);
                    if (raStack.empty()) {
                        returned = true;
                    } else {
                        pc = raStack.back();
                        raStack.pop_back();
                    }
                    break;
                  case InstKind::StreamStop:
                    // Cancelling an input stream discards buffered
                    // data, but the anticipated exit compare lets the
                    // IFU reach the stop while the final body's
                    // dequeue is still queued behind it. Drain the
                    // execute units first so a dispatched consumer
                    // never loses data it was promised.
                    if (inst.when && !unitsIdle()) {
                        ifuStall(StallCause::SyncWait);
                        return;
                    }
                    if (cp) {
                        int32_t ev = cpIfuEvent(inst);
                        if (inst.when) {
                            // Cancelling waited for the units to
                            // drain (same cycle: exec is earlier).
                            cp->dep(lastExecEv[0],
                                    cpCause[static_cast<size_t>(
                                        StallCause::SyncWait)],
                                    0.0f);
                            cp->dep(lastExecEv[1],
                                    cpCause[static_cast<size_t>(
                                        StallCause::SyncWait)],
                                    0.0f);
                        }
                        (void)ev; // applyStreamStop uses cpCurEv
                    }
                    applyStreamStop(inst);
                    ++pc;
                    break;
                  case InstKind::Assign: {
                    // Synchronizing int/float conversion.
                    if (!unitsIdle()) {
                        ifuStall(StallCause::SyncWait);
                        return;
                    }
                    // A folded FIFO operand may still be in flight.
                    if (!fifosHold(f.needs)) {
                        ifuStall(StallCause::DataFifoEmpty);
                        return;
                    }
                    int32_t ev = -1;
                    if (cp) {
                        ev = cpIfuEvent(inst);
                        cp->dep(lastExecEv[0],
                                cpCause[static_cast<size_t>(
                                    StallCause::SyncWait)],
                                0.0f);
                        cp->dep(lastExecEv[1],
                                cpCause[static_cast<size_t>(
                                    StallCause::SyncWait)],
                                0.0f);
                    }
                    writeReg(f, eval(d.src));
                    if (cp)
                        cpNoteWrite(f, ev);
                    ++pc;
                    break;
                  }
                  default:
                    throw ExecError("bad IFU instruction");
                }
                ++stats.ifuExecuted;
                break;
              }
              case Engine::SCU: {
                if (inst.kind == InstKind::VecOp) {
                    // Vector operation: needs both units drained (the
                    // count and any scalar operand hold final values)
                    // and the VEU free.
                    if (!unitsIdle() || veu.active) {
                        ifuStall(veu.active ? StallCause::VeuBusy
                                            : StallCause::SyncWait);
                        return;
                    }
                    if (cp) {
                        int32_t ev = cpIfuEvent(inst);
                        cp->dep(lastExecEv[0],
                                cpCause[static_cast<size_t>(
                                    StallCause::SyncWait)],
                                0.0f);
                        cp->dep(lastExecEv[1],
                                cpCause[static_cast<size_t>(
                                    StallCause::SyncWait)],
                                0.0f);
                        // The previous vector op's last element ran
                        // in an earlier phase this cycle.
                        cp->dep(lastVeuEv,
                                cpCause[static_cast<size_t>(
                                    StallCause::VeuBusy)],
                                0.0f);
                        veuOpEv = ev;
                        veuPrevElemEv = -1;
                        veuLoop = inst.loopId;
                    }
                    VeuState v;
                    v.active = true;
                    v.op = inst.vecOp;
                    v.copy = inst.vecSrc2 == nullptr;
                    v.dstSide =
                        inst.dst->regFile() == RegFile::Flt ? 1 : 0;
                    v.dstFifo = inst.dst->regIndex();
                    v.s1Side =
                        inst.src->regFile() == RegFile::Flt ? 1 : 0;
                    v.s1Fifo = inst.src->regIndex();
                    if (!v.copy) {
                        const ExprPtr &s2 = inst.vecSrc2;
                        if (s2->isReg() && s2->regIndex() <= 1 &&
                                (s2->regFile() == RegFile::Int ||
                                 s2->regFile() == RegFile::Flt)) {
                            v.src2IsFifo = true;
                            v.s2Side =
                                s2->regFile() == RegFile::Flt ? 1 : 0;
                            v.s2Fifo = s2->regIndex();
                        } else {
                            v.src2Val = eval(d.vecSrc2);
                        }
                    }
                    v.remaining = eval(d.count).i;
                    if (v.remaining <= 0)
                        v.active = false;
                    // Ordering bookkeeping: the VecOp produces all the
                    // enqueues the destination stream will see.
                    int64_t mySeq = seqCounter++;
                    if (Stream *s = findStream(v.dstSide, v.dstFifo,
                                               /*input=*/false)) {
                        for (int64_t k = 0; k < v.remaining; ++k) {
                            s->enqSeqs.push_back(mySeq);
                            ++s->dispatchedEnqueues;
                        }
                    }
                    veu = v;
                    ++pc;
                    ++stats.ifuExecuted;
                    break;
                }
                // Stream start: needs the IEU drained so the base and
                // count registers hold final values, plus a free SCU,
                // plus the target FIFO free of a previous stream (a
                // re-entered loop may dispatch the next instance while
                // the last one is still draining).
                if (!unitQ[0].empty() || unitBusyUntil[0] > now) {
                    ifuStall(StallCause::ScuDrainWait);
                    return;
                }
                Stream *free = nullptr;
                for (Stream &s : scus)
                    if (!s.active)
                        free = &s;
                if (!free) {
                    ifuStall(StallCause::ScuUnavailable);
                    return;
                }
                int side = inst.side == UnitSide::Flt ? 1 : 0;
                if (findStream(side, inst.fifo,
                               inst.kind == InstKind::StreamIn)) {
                    ifuStall(StallCause::ScuFifoBusy);
                    return; // previous stream still draining
                }
                int32_t startEv = -1;
                if (cp) {
                    startEv = cpIfuEvent(inst);
                    // Start gated on the IEU drain, a free SCU slot,
                    // and the FIFO's previous stream having retired —
                    // all resolved in earlier phases of this cycle.
                    cp->dep(lastExecEv[0],
                            cpCause[static_cast<size_t>(
                                StallCause::ScuDrainWait)],
                            0.0f);
                    cp->dep(free->slotRetireEv,
                            cpCause[static_cast<size_t>(
                                StallCause::ScuUnavailable)],
                            0.0f);
                    cp->dep(lastRetire[side][inst.fifo]
                                      [inst.kind == InstKind::StreamIn
                                           ? 1
                                           : 0],
                            cpCause[static_cast<size_t>(
                                StallCause::ScuFifoBusy)],
                            0.0f);
                }
                Stream s;
                s.active = true;
                s.input = inst.kind == InstKind::StreamIn;
                s.side = side;
                s.fifo = inst.fifo;
                s.base = eval(d.addr).i;
                s.stride = inst.stride;
                s.count = d.count.empty() ? -1 : eval(d.count).i;
                s.type = inst.memType;
                s.seq = seqCounter++;
                s.readyAt = now + cfg.scuStartupCycles +
                            (chaos ? chaosRng.nextBelow(4) : 0);
                s.loopId = inst.loopId;
                s.startEv = startEv;
                s.slotRetireEv = free->slotRetireEv;
                if (s.count == 0) {
                    // Empty stream: nothing to do, but the mirror must
                    // still say "exhausted".
                    s.active = false;
                }
                if (findStream(side, inst.fifo, s.input))
                    throw ExecError("stream already active on FIFO");
                s.enqSeqs = std::move(free->enqSeqs); // keep the ring
                s.enqSeqs.clear();
                *free = std::move(s);
                if (cp && !free->active)
                    // Empty stream: retires the cycle it starts.
                    cpRetire(*free, startEv);
                // Starting a stream program re-arms the IFU's count
                // mirror unconditionally. The mirror may still hold a
                // positive leftover from an earlier multi-stream loop
                // that was steered by a *different* FIFO's JNI (that
                // stream's count is never decremented); keeping it
                // would make the next JNI on this FIFO run the wrong
                // trip count and over-enqueue past what the new
                // stream drains (FIFO deadlock at small depths).
                mirror[side][inst.fifo] = free->count;
                ++pc;
                ++stats.ifuExecuted;
                break;
              }
              case Engine::IEU:
              case Engine::FEU: {
                int u = f.engine == Engine::FEU ? 1 : 0;
                if (static_cast<int>(unitQ[u].size()) >=
                        cfg.instQueueDepth) {
                    ifuStall(StallCause::InstQueueFull);
                    return;
                }
                int64_t mySeq = seqCounter++;
                bool streamEnq = false;
                // Attribute enqueues to the active out-stream on their
                // FIFO — but only up to the stream's element count:
                // later enqueues in dispatch order are ordinary stores
                // that must wait for the stream to retire.
                if (inst.kind == InstKind::Assign && f.dst == Dst::Fifo) {
                    Stream *s = findStream(f.side, f.index,
                                           /*input=*/false);
                    if (s && !s->closed &&
                            (s->count < 0 ||
                             s->dispatchedEnqueues < s->count)) {
                        s->enqSeqs.push_back(mySeq);
                        ++s->dispatchedEnqueues;
                        streamEnq = true;
                    }
                }
                int32_t dev = -1;
                if (cp) {
                    dev = cpIfuEvent(inst);
                    // Exec (the freeing pop) is an earlier phase, so
                    // a pop at cycle t admits a dispatch at t.
                    cp->pushDep(
                        cpQInst(u),
                        cpCause[static_cast<size_t>(
                            StallCause::InstQueueFull)],
                        0.0f);
                }
                unitQ[u].push_back({pc, mySeq, streamEnq, dev});
                ++pc;
                ++stats.instsDispatched;
                break;
              }
            }
        }
    }

    bool
    drained()
    {
        if (!unitQ[0].empty() || !unitQ[1].empty())
            return false;
        if (!storeQ[0].empty() || !storeQ[1].empty())
            return false;
        for (int s = 0; s < 2; ++s)
            for (int f = 0; f < 2; ++f)
                if (!inflight[s][f].empty())
                    return false;
        for (const Stream &s : scus)
            if (s.active && !s.input)
                return false;
        if (veu.active)
            return false;
        return true;
    }

    /** Move collected occupancy histograms into the result stats. */
    void
    finalizeStats()
    {
        // Close the flight recorder's final (possibly partial) window
        // so its window cycles sum to stats.cycles. On a RuntimeError
        // the partial faulting cycle was never sampled, so cumulative
        // channel totals may undercount — consumers skip the sum
        // check when the run faulted.
        if (cfg.timeseries)
            cfg.timeseries->finish(now);
        if (cp) {
            // Terminal event: the run ends when the last of every
            // unit's final activity has drained. The backward walk
            // starts here; the binding drain edge names the unit that
            // finished last.
            int32_t ev = cp->event(now, cpuEnd, -1, 0);
            cp->dep(lastIfuEv, cpcDrain, 0.0f);
            cp->dep(lastExecEv[0], cpcDrain, 0.0f);
            cp->dep(lastExecEv[1], cpcDrain, 0.0f);
            cp->dep(lastStoreCommitEv, cpcDrain, 0.0f);
            cp->dep(lastDeliveryEv, cpcDrain, 0.0f);
            cp->dep(lastVeuEv, cpcDrain, 0.0f);
            for (auto &s : scus)
                cp->dep(s.lastElemEv, cpcDrain, 0.0f);
            cp->setEnd(ev);
        }
        stats.cycles = now;
        stats.loops.clear();
        for (const LoopCycleStats &b : loopBuckets)
            if (b.cycles)
                stats.loops.push_back(b);
        if (!cfg.collectOccupancy || !stats.occupancy.empty())
            return;
        stats.occupancy.reserve(kNumOcc);
        for (int i = 0; i < kNumOcc; ++i)
            stats.occupancy.push_back({kOccNames[i], occ[i]});
    }

    // ---- deadlock forensics ----

    static std::string
    unitName(int u)
    {
        return u ? "feu" : "ieu";
    }

    const Inst &instAt(const QEntry &q) const { return *exe.code[q.pc].inst; }

    std::string
    scuName(size_t i) const
    {
        return strFormat("scu%zu", i);
    }

    /** Edges from @p from to whoever can fill inFifo[s][f]. */
    void
    addInFifoProducerEdges(std::vector<WaitForEdge> &edges,
                           const std::string &from, int s, int f,
                           const std::string &why)
    {
        bool any = false;
        for (size_t i = 0; i < scus.size(); ++i)
            if (scus[i].active && scus[i].input &&
                    scus[i].side == s && scus[i].fifo == f) {
                edges.push_back({from, scuName(i), why});
                any = true;
            }
        if (!inflight[s][f].empty()) {
            edges.push_back({from, "mem", why});
            any = true;
        }
        if (f == 0)
            // Scalar loads deliver into FIFO 0; they execute on the
            // IEU regardless of the data's side.
            for (const QEntry &q : unitQ[0])
                if (instAt(q).kind == InstKind::Load &&
                        (rtl::isFloatType(instAt(q).memType) ? 1 : 0) ==
                            s) {
                    edges.push_back({from, "ieu", why});
                    any = true;
                    break;
                }
        if (!any)
            edges.push_back({from, returned ? "<no-producer>" : "ifu",
                             why});
    }

    /** Edges from @p from to whoever can drain outFifo[s][f]. */
    void
    addOutFifoDrainerEdges(std::vector<WaitForEdge> &edges,
                           const std::string &from, int s, int f,
                           const std::string &why)
    {
        bool any = false;
        for (size_t i = 0; i < scus.size(); ++i)
            if (scus[i].active && !scus[i].input &&
                    scus[i].side == s && scus[i].fifo == f) {
                edges.push_back({from, scuName(i), why});
                any = true;
            }
        if (f == 0) {
            // The store-commit path pairs storeQ addresses with
            // FIFO-0 data.
            if (!storeQ[s].empty()) {
                edges.push_back({from, "mem", why});
                any = true;
            }
            for (const QEntry &q : unitQ[0])
                if (instAt(q).kind == InstKind::Store &&
                        (rtl::isFloatType(instAt(q).memType) ? 1 : 0) ==
                            s) {
                    edges.push_back({from, "ieu", why});
                    any = true;
                    break;
                }
        }
        if (!any)
            edges.push_back({from, returned ? "<no-drainer>" : "ifu",
                             why});
    }

    /** Edges from @p from to whoever can dequeue inFifo[s][f]. */
    void
    addInFifoConsumerEdges(std::vector<WaitForEdge> &edges,
                           const std::string &from, int s, int f,
                           const std::string &why)
    {
        bool any = false;
        for (int u = 0; u < 2; ++u)
            for (const QEntry &q : unitQ[u]) {
                if (facts[q.pc].needs[s][f]) {
                    edges.push_back({from, unitName(u), why});
                    any = true;
                    break;
                }
            }
        if (veu.active &&
                ((veu.s1Side == s && veu.s1Fifo == f) ||
                 (veu.src2IsFifo && veu.s2Side == s &&
                  veu.s2Fifo == f))) {
            edges.push_back({from, "veu", why});
            any = true;
        }
        if (!any)
            edges.push_back({from, returned ? "<no-consumer>" : "ifu",
                             why});
    }

    /** Edges from @p from to whoever can enqueue into outFifo[s][f]. */
    void
    addOutFifoProducerEdges(std::vector<WaitForEdge> &edges,
                            const std::string &from, int s, int f,
                            const std::string &why)
    {
        bool any = false;
        for (int u = 0; u < 2; ++u)
            for (const QEntry &q : unitQ[u])
                if (facts[q.pc].dst == Dst::Fifo && facts[q.pc].side == s &&
                        facts[q.pc].index == f) {
                    edges.push_back({from, unitName(u), why});
                    any = true;
                    break;
                }
        if (veu.active && veu.dstSide == s && veu.dstFifo == f) {
            edges.push_back({from, "veu", why});
            any = true;
        }
        if (!any)
            edges.push_back({from, returned ? "<no-producer>" : "ifu",
                             why});
    }

    /** Wait-for edges out of a blocked IEU/FEU (@p un) head. */
    void
    addUnitEdges(std::vector<WaitForEdge> &edges, int un, StallCause c)
    {
        if (unitQ[un].empty())
            return;
        const Inst &head = instAt(unitQ[un].front());
        const auto &needs = facts[unitQ[un].front().pc].needs;
        const std::string from = unitName(un);
        const std::string why = stallCauseName(c);
        switch (c) {
          case StallCause::DataFifoEmpty: {
            for (int s = 0; s < 2; ++s)
                for (int f = 0; f < 2; ++f)
                    if (needs[s][f] > inFifo[s][f].size())
                        addInFifoProducerEdges(
                            edges, from, s, f,
                            why + strFormat(": in_fifo.%s%d",
                                            s ? "flt" : "int", f));
            break;
          }
          case StallCause::DataFifoFull: {
            int s = head.dst->regFile() == RegFile::Flt ? 1 : 0;
            addOutFifoDrainerEdges(
                edges, from, s, head.dst->regIndex(),
                why + strFormat(": out_fifo.%s%d", s ? "flt" : "int",
                                head.dst->regIndex()));
            break;
          }
          case StallCause::CcFifoFull:
            // Only conditional jumps (on the IFU) pop CC FIFOs.
            edges.push_back({from, "ifu", why});
            break;
          case StallCause::StoreQueueFull: {
            int s = rtl::isFloatType(head.memType) ? 1 : 0;
            if (Stream *owner = findStream(s, 0, /*input=*/false))
                edges.push_back(
                    {from,
                     scuName(static_cast<size_t>(owner - &scus[0])),
                     why + ": store commit blocked by out-stream"});
            else if (outFifo[s][0].empty())
                addOutFifoProducerEdges(edges, from, s, 0,
                                        why + ": store data missing");
            else
                edges.push_back({from, "mem", why});
            break;
          }
          case StallCause::StreamOwnership: {
            bool isLoad = head.kind == InstKind::Load;
            int s = isLoad
                        ? (rtl::isFloatType(head.memType) ? 1 : 0)
                        : (head.dst->regFile() == RegFile::Flt ? 1
                                                               : 0);
            Stream *owner =
                isLoad ? findStream(s, 0, /*input=*/true)
                       : findStream(s, head.dst->regIndex(),
                                    /*input=*/false);
            if (owner)
                edges.push_back(
                    {from,
                     scuName(static_cast<size_t>(owner - &scus[0])),
                     why});
            break;
          }
          default:
            break; // DivBusy/MemPortContention: transient
        }
    }

    /** Wait-for edges out of a blocked IFU. */
    void
    addIfuEdges(std::vector<WaitForEdge> &edges, StallCause c)
    {
        if (returned || pc < 0 || pc >= static_cast<int64_t>(exe.code.size()))
            return;
        const Inst &inst = *exe.code[pc].inst;
        const std::string why = stallCauseName(c);
        switch (c) {
          case StallCause::CcFifoEmpty: {
            // cc0 is written by the IEU, cc1 by the FEU.
            int s = inst.side == UnitSide::Flt ? 1 : 0;
            edges.push_back({"ifu", unitName(s), why});
            break;
          }
          case StallCause::InstQueueFull: {
            int u = facts[pc].engine == Engine::FEU ? 1 : 0;
            edges.push_back({"ifu", unitName(u), why});
            break;
          }
          case StallCause::SyncWait:
          case StallCause::ScuDrainWait:
            for (int u = 0; u < 2; ++u)
                if (!unitQ[u].empty() || unitBusyUntil[u] > now)
                    edges.push_back({"ifu", unitName(u), why});
            break;
          case StallCause::VeuBusy:
            edges.push_back({"ifu", "veu", why});
            break;
          case StallCause::ScuUnavailable:
            for (size_t i = 0; i < scus.size(); ++i)
                if (scus[i].active)
                    edges.push_back({"ifu", scuName(i), why});
            break;
          case StallCause::ScuFifoBusy: {
            int s = inst.side == UnitSide::Flt ? 1 : 0;
            if (Stream *owner =
                    findStream(s, inst.fifo,
                               inst.kind == InstKind::StreamIn))
                edges.push_back(
                    {"ifu",
                     scuName(static_cast<size_t>(owner - &scus[0])),
                     why});
            break;
          }
          case StallCause::DataFifoEmpty: {
            // Synchronizing conversion with a folded FIFO operand.
            const auto &needs = facts[pc].needs;
            for (int s = 0; s < 2; ++s)
                for (int f = 0; f < 2; ++f)
                    if (needs[s][f] > inFifo[s][f].size())
                        addInFifoProducerEdges(edges, "ifu", s, f,
                                               why);
            break;
          }
          default:
            break;
        }
    }

    /** Snapshot the machine and derive the wait-for graph. */
    FaultReport
    buildFaultReport(SimFault kind)
    {
        FaultReport r;
        r.kind = kind;
        r.cycle = now;
        r.lastProgressCycle = lastProgressCycle;
        r.window = cfg.watchdogWindow;

        // Unit snapshots.
        {
            FaultUnitState u;
            u.unit = "ifu";
            u.pc = pc;
            if (!returned && pc >= 0 &&
                    pc < static_cast<int64_t>(exe.code.size())) {
                u.inst = exe.code[pc].inst->str();
                u.loopId = exe.code[pc].inst->loopId;
            }
            u.blocked = !returned && lastIfuCause != StallCause::None;
            u.cause = u.blocked ? lastIfuCause : StallCause::None;
            r.units.push_back(u);
            if (u.blocked)
                addIfuEdges(r.edges, u.cause);
        }
        for (int un = 0; un < 2; ++un) {
            FaultUnitState u;
            u.unit = unitName(un);
            if (!unitQ[un].empty()) {
                const Inst &head = instAt(unitQ[un].front());
                u.inst = head.str();
                u.loopId = head.loopId;
            }
            StallCause c = lastUnitCause[un];
            u.blocked = !unitQ[un].empty() &&
                        c != StallCause::None &&
                        c != StallCause::InstQueueEmpty;
            u.cause = u.blocked ? c : StallCause::None;
            r.units.push_back(u);
            if (u.blocked)
                addUnitEdges(r.edges, un, c);
        }
        if (veu.active) {
            FaultUnitState u;
            u.unit = "veu";
            u.blocked = true;
            if (inFifo[veu.s1Side][veu.s1Fifo].empty() ||
                    (veu.src2IsFifo &&
                     inFifo[veu.s2Side][veu.s2Fifo].empty())) {
                u.cause = StallCause::DataFifoEmpty;
                if (inFifo[veu.s1Side][veu.s1Fifo].empty())
                    addInFifoProducerEdges(r.edges, "veu", veu.s1Side,
                                           veu.s1Fifo,
                                           "data_fifo_empty");
                if (veu.src2IsFifo &&
                        inFifo[veu.s2Side][veu.s2Fifo].empty())
                    addInFifoProducerEdges(r.edges, "veu", veu.s2Side,
                                           veu.s2Fifo,
                                           "data_fifo_empty");
            } else {
                u.cause = StallCause::DataFifoFull;
                addOutFifoDrainerEdges(r.edges, "veu", veu.dstSide,
                                       veu.dstFifo, "data_fifo_full");
            }
            r.units.push_back(u);
        }

        // Memory: a delivery stuck at the head of an inflight queue
        // waits on an older store (whose data a unit still owes) or
        // on space in the target FIFO.
        for (int s = 0; s < 2; ++s)
            for (int f = 0; f < 2; ++f) {
                if (inflight[s][f].empty())
                    continue;
                const ReadReq &req = inflight[s][f].front();
                if (req.deliverAt > now)
                    continue;
                if (olderStorePending(req.addr, req.size, req.seq)) {
                    for (int s2 = 0; s2 < 2; ++s2)
                        if (!storeQ[s2].empty()) {
                            if (Stream *owner = findStream(
                                    s2, 0, /*input=*/false))
                                r.edges.push_back(
                                    {"mem",
                                     scuName(static_cast<size_t>(
                                         owner - &scus[0])),
                                     "older store blocked by "
                                     "out-stream"});
                            else if (outFifo[s2][0].empty())
                                addOutFifoProducerEdges(
                                    r.edges, "mem", s2, 0,
                                    "older store waits for data");
                        }
                } else if (static_cast<int>(inFifo[s][f].size()) >=
                           cfg.dataFifoDepth) {
                    addInFifoConsumerEdges(
                        r.edges, "mem", s, f,
                        strFormat("delivery blocked: in_fifo.%s%d "
                                  "full",
                                  s ? "flt" : "int", f));
                }
            }

        // Queue occupancies.
        for (int i = 0; i < kNumOcc; ++i) {
            FaultQueueState q;
            q.name = kOccNames[i];
            q.occupancy = static_cast<int>(occValue(i));
            q.capacity = i < 8 ? cfg.dataFifoDepth
                         : i < 10 ? cfg.ccFifoDepth
                         : i < 12 ? cfg.instQueueDepth
                                  : cfg.storeQueueDepth;
            r.queues.push_back(q);
        }

        // Stream snapshots + blocked-SCU edges.
        for (size_t i = 0; i < scus.size(); ++i) {
            const Stream &s = scus[i];
            if (!s.active)
                continue;
            FaultStreamState st;
            st.scu = static_cast<int>(i);
            st.input = s.input;
            st.side = s.side;
            st.fifo = s.fifo;
            st.base = s.base;
            st.stride = s.stride;
            st.count = s.count;
            st.issued = s.issued;
            st.done = s.done;
            st.dispatchedEnqueues = s.dispatchedEnqueues;
            st.closed = s.closed;
            r.streams.push_back(st);

            FaultUnitState u;
            u.unit = scuName(i);
            if (s.input) {
                int64_t limit =
                    s.count >= 0 ? s.count : INT64_MAX / 2;
                bool full =
                    static_cast<int>(inflight[s.side][s.fifo].size() +
                                     inFifo[s.side][s.fifo].size()) >=
                    cfg.dataFifoDepth;
                if (!s.closed && s.issued < limit && full) {
                    u.blocked = true;
                    u.cause = StallCause::DataFifoFull;
                    addInFifoConsumerEdges(
                        r.edges, u.unit, s.side, s.fifo,
                        strFormat("in-stream blocked: in_fifo.%s%d "
                                  "full",
                                  s.side ? "flt" : "int", s.fifo));
                }
            } else {
                bool drained =
                    (s.count >= 0 && s.done >= s.count) || s.closed;
                if (!drained && outFifo[s.side][s.fifo].empty()) {
                    u.blocked = true;
                    u.cause = StallCause::DataFifoEmpty;
                    addOutFifoProducerEdges(
                        r.edges, u.unit, s.side, s.fifo,
                        strFormat("out-stream starved: out_fifo.%s%d "
                                  "empty",
                                  s.side ? "flt" : "int", s.fifo));
                }
            }
            r.units.push_back(u);
        }

        r.waitChain = findWaitCycle(r.edges);
        r.cycleFound = !r.waitChain.empty();
        if (!r.cycleFound && !r.edges.empty()) {
            // No cycle: report the chain from the first blocked unit
            // to its dead-end resource instead.
            std::string cur;
            for (const FaultUnitState &u : r.units)
                if (u.blocked) {
                    cur = u.unit;
                    break;
                }
            std::vector<std::string> seen;
            while (!cur.empty()) {
                if (std::find(seen.begin(), seen.end(), cur) !=
                        seen.end())
                    break;
                seen.push_back(cur);
                std::string next;
                for (const WaitForEdge &e : r.edges)
                    if (e.from == cur) {
                        next = e.to;
                        break;
                    }
                cur = next;
            }
            r.waitChain = seen;
        }

        std::string blocked;
        for (const FaultUnitState &u : r.units)
            if (u.blocked) {
                if (!blocked.empty())
                    blocked += ", ";
                blocked += u.unit + " on " +
                           stallCauseName(u.cause);
            }
        if (kind == SimFault::Deadlock)
            r.message = strFormat(
                            "no progress for %llu cycles; blocked: ",
                            static_cast<unsigned long long>(
                                now - lastProgressCycle)) +
                        (blocked.empty() ? "(none)" : blocked);
        else
            r.message =
                strFormat("cycle limit (%llu) reached while still "
                          "making progress",
                          static_cast<unsigned long long>(
                              cfg.maxCycles)) +
                (blocked.empty() ? "" : "; blocked: " + blocked);
        return r;
    }

    SimResult
    run()
    {
        SimResult res;
        if (!exe.startError.empty()) {
            res.error = exe.startError;
            res.fault = SimFault::RuntimeError;
            return res;
        }
        pc = exe.mainEntry;
        // Instrumentation branches are hoisted out of the common path:
        // with both knobs off the per-cycle cost is two predictable
        // untaken branches.
        const bool sampleOcc = cfg.collectOccupancy;
        const bool tracing = cfg.trace != nullptr;
        const bool sampling = cfg.timeseries != nullptr;
        try {
            while (now < cfg.maxCycles) {
                portsUsed = 0;
                // Chaos withholds a random subset of memory ports
                // this cycle (always granting at least one).
                if (chaos)
                    portsUsed =
                        cfg.memPorts -
                        1 -
                        static_cast<int>(chaosRng.nextBelow(
                            static_cast<uint64_t>(cfg.memPorts)));
                // Attribute this whole cycle to the loop owning the
                // fetch PC as the cycle begins (bucket -1 outside any
                // loop / after return). One bucket per cycle is what
                // makes the buckets sum exactly to total cycles.
                curBucket = &loopBuckets[
                    !returned && pc >= 0 &&
                            pc < static_cast<int64_t>(exe.code.size())
                        ? facts[pc].bucket
                        : 0];
                ++curBucket->cycles;
                uint64_t dispatched0 = stats.instsDispatched +
                                       stats.ifuExecuted;
                uint64_t ieuExec0 = stats.ieuExecuted;
                uint64_t feuExec0 = stats.feuExecuted;
                deliverReads();
                StallCause c0 = stepUnit(0);
                StallCause c1 = stepUnit(1);
                lastUnitCause[0] = c0;
                lastUnitCause[1] = c1;
                if (cp) {
                    // Remember the most recent stall per unit; the
                    // next exec event consumes it as its wait cause.
                    if (c0 != StallCause::None)
                        unitWaitCause[0] = c0;
                    if (c1 != StallCause::None)
                        unitWaitCause[1] = c1;
                }
                if (c0 != StallCause::None) {
                    if (c0 == StallCause::InstQueueEmpty)
                        ++stats.ieuIdleCycles;
                    else {
                        ++stats.ieuStallCycles;
                        ++stats.ieuStalls[c0];
                        ++curBucket->ieuStallCycles;
                        ++curBucket->stalls[c0];
                    }
                }
                if (c1 != StallCause::None) {
                    if (c1 == StallCause::InstQueueEmpty)
                        ++stats.feuIdleCycles;
                    else {
                        ++stats.feuStallCycles;
                        ++stats.feuStalls[c1];
                        ++curBucket->feuStallCycles;
                        ++curBucket->stalls[c1];
                    }
                }
                commitStores();
                stepVEU();
                stepSCUs();
                fetchAndDispatch();
                if (sampleOcc)
                    sampleOccupancy();
                if (tracing)
                    traceCycle(stats.instsDispatched +
                                   stats.ifuExecuted - dispatched0,
                               stats.ieuExecuted - ieuExec0,
                               stats.feuExecuted - feuExec0);
                if (sampling)
                    tsSample();
                ++now;
                if (returned && drained())
                    break;
                // Watchdog: the progress sum moves whenever anything
                // architectural or memory-visible happens. A full
                // window without movement is a deadlock; snapshot and
                // diagnose instead of burning to the cycle limit.
                uint64_t p = progressSum();
                if (p != lastProgressSum) {
                    lastProgressSum = p;
                    lastProgressCycle = now;
                } else if (cfg.watchdogWindow != 0 &&
                           now - lastProgressCycle >=
                               cfg.watchdogWindow) {
                    res.fault = SimFault::Deadlock;
                    res.faultReport =
                        buildFaultReport(SimFault::Deadlock);
                    res.error = "deadlock: " + res.faultReport.message;
                    traceFinish();
                    finalizeStats();
                    res.stats = stats;
                    return res;
                }
            }
            if (now >= cfg.maxCycles) {
                // Still making progress at the limit (the watchdog
                // would have fired otherwise): a livelock or an
                // unreasonably long program.
                res.fault = SimFault::Livelock;
                res.faultReport = buildFaultReport(SimFault::Livelock);
                res.error = "livelock: " + res.faultReport.message;
                traceFinish();
                finalizeStats();
                res.stats = stats;
                return res;
            }
        } catch (const ExecError &e) {
            res.error = e.what();
            res.fault = SimFault::RuntimeError;
            traceFinish();
            finalizeStats();
            res.stats = stats;
            return res;
        }
        res.ok = true;
        res.returnValue = rreg[2];
        traceFinish();
        finalizeStats();
        res.stats = stats;
        return res;
    }
};

Simulator::Simulator(const rtl::Program &prog, SimConfig config)
    : impl_(std::make_unique<Impl>(prog, config))
{
}

Simulator::~Simulator() = default;

SimResult
Simulator::run()
{
    return impl_->run();
}

int64_t
Simulator::readInt(int64_t addr) const
{
    return impl_->exe.read(addr, DataType::I64).i;
}

double
Simulator::readDouble(int64_t addr) const
{
    return impl_->exe.read(addr, DataType::F64).f;
}

uint8_t
Simulator::readByte(int64_t addr) const
{
    return static_cast<uint8_t>(impl_->exe.read(addr, DataType::I8).i);
}

SimResult
simulate(const rtl::Program &prog, SimConfig config)
{
    Simulator sim(prog, config);
    return sim.run();
}

} // namespace wmstream::wmsim
