#include "wmsim/sim.h"

#include <algorithm>

#include "rtl/exec.h"
#include "support/convert.h"
#include "support/diag.h"
#include "support/ring.h"
#include "support/rng.h"
#include "support/str.h"
#include "wmsim/probe.h"

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

std::array<SimCounter, 17>
SimStats::counters() const
{
    return {{
        {"insts_dispatched", instsDispatched},
        {"loads_issued", loadsIssued},
        {"stores_committed", storesCommitted},
        {"stream.elements_in", streamElementsIn},
        {"stream.elements_out", streamElementsOut},
        {"vector_elements", vectorElements},
        {"ieu.executed", ieuExecuted},
        {"ieu.stall_cycles", ieuStalls.total(), &ieuStalls, "ieu.stall."},
        {"feu.executed", feuExecuted},
        {"feu.stall_cycles", feuStalls.total(), &feuStalls, "feu.stall."},
        {"ifu.executed", ifuExecuted},
        {"ifu.stall_cycles", ifuStalls.total(), &ifuStalls, "ifu.stall."},
        {"ieu.idle_empty_cycles", ieuIdleCycles},
        {"feu.idle_empty_cycles", feuIdleCycles},
        {"scu.startup_wait_cycles", scuStartupWaitCycles},
        {"scu.port_contention_cycles", scuPortContentionCycles},
        {"store.port_contention_cycles", storePortContentionCycles},
    }};
}

void
SimStats::exportCounters(obs::CounterRegistry &reg) const
{
    // The nonzero causes of @p st, as prefix + cause name.
    auto causes = [&](const std::string &prefix, const UnitStallStats &st) {
        for (size_t c = 1; c < static_cast<size_t>(StallCause::kCount); ++c)
            if (uint64_t v = st.byCause[c])
                reg.set(prefix + stallCauseName(static_cast<StallCause>(c)),
                        v);
    };
    reg.set("cycles", cycles);
    for (const SimCounter &c : counters()) {
        reg.set(c.name, c.value);
        if (c.causes)
            causes(c.causePrefix, *c.causes);
    }

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
        for (auto [u, v] : {std::pair{".ieu", l.ieuStallCycles},
                            {".feu", l.feuStallCycles},
                            {".ifu", l.ifuStallCycles}})
            if (v)
                reg.set(p + u + "_stall_cycles", v);
        causes(p + ".stall.", l.stalls);
    }
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

    /** cfg's observability sinks, or null (wmsim/probe.h). */
    std::unique_ptr<Probe> probe;
    /** Per-slot stream state for CycleView, refilled each cycle. */
    std::vector<StreamView> streamViews;

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
        streamViews.resize(scus.size());
        rreg[30] = rtl::kInitialSp;
        probe = makeProbes(cfg, exe);
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

    /** Current occupancy of queue @p i (see kQueueNames). */
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

    /** The end-of-cycle view the probe's cycleEnd() receives. */
    CycleView
    cycleView()
    {
        CycleView v{now, {}, streamViews, veu.active, stats};
        for (int q = 0; q < kNumQueues; ++q)
            v.levels[q] = static_cast<uint32_t>(occValue(q));
        for (size_t i = 0; i < scus.size(); ++i) {
            const Stream &s = scus[i];
            streamViews[i] = {s.active, s.input, s.side, s.fifo, s.count,
                              s.stride};
        }
        return v;
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
                if (probe) probe->pop(qIn(s, idx));
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
            if (probe) probe->push(qCc(f.side));
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
            if (probe) probe->push(qOut(f.side, f.index));
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
            if (probe) probe->streamCancel(static_cast<int>(s - scus.data()));
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
                        if (probe) probe->readDiscard(side, f);
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
                    if (probe) probe->readDeliver(side, f, req.ordered);
                    if (probe) probe->push(qIn(side, f));
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
            const StoreReq &st = storeQ[side].front();
            exe.write(st.addr, st.type, outFifo[side][0].front());
            if (probe) probe->storeCommit(side);
            if (probe) probe->pop(qOut(side, 0));
            if (probe) probe->pop(qStore(side));
            storeQ[side].pop_front();
            outFifo[side][0].pop_front();
            ++portsUsed;
            ++stats.storesCommitted;
        }
    }

    void
    stepSCUs()
    {
        for (int i = 0; i < static_cast<int>(scus.size()); ++i) {
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
                    if (probe) probe->streamRetire(i);
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
                    req.scu = i;
                    // Bounds are checked at delivery; unbounded streams
                    // may legitimately run past the data they will
                    // never deliver, so clamp errors here.
                    if (req.addr < 0 ||
                            req.addr + req.size >
                                static_cast<int64_t>(exe.mem.size())) {
                        s.closed = true; // stop prefetching
                        break;
                    }
                    inflight[s.side][s.fifo].push_back(req);
                    if (probe) probe->streamIssue(i);
                    ++s.issued;
                    ++scuReadsIssued;
                    ++portsUsed;
                }
                if (s.issued >= limit && s.done >= limit) {
                    s.active = false; // retires when fully delivered
                    if (probe) probe->streamRetire(i);
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
                    if (probe) probe->streamWrite(i);
                    if (probe) probe->pop(qOut(s.side, s.fifo));
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
                    if (probe) probe->streamRetire(i);
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
            if (probe) probe->veuElement();
            Val a = in1.front();
            in1.pop_front();
            if (probe) probe->pop(qIn(veu.s1Side, veu.s1Fifo));
            Val r;
            if (veu.copy) {
                r = a;
            } else {
                Val b = veu.src2IsFifo
                            ? inFifo[veu.s2Side][veu.s2Fifo].front()
                            : veu.src2Val;
                if (veu.src2IsFifo) {
                    inFifo[veu.s2Side][veu.s2Fifo].pop_front();
                    if (probe) probe->pop(qIn(veu.s2Side, veu.s2Fifo));
                }
                if (const char *err = rtl::applyBin(veu.op, a, b, r))
                    throw ExecError(err);
            }
            if (veu.dstSide == 1 && !r.isFloat) {
                r.f = static_cast<double>(r.i);
                r.isFloat = true;
            }
            out.push_back(r);
            if (probe) probe->push(qOut(veu.dstSide, veu.dstFifo));
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
            if (probe) probe->exec(u, q.pc, f.divides);
            writeReg(f, eval(d.src));
            if (f.divides)
                unitBusyUntil[u] = now + cfg.divLatency;
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
            if (probe) probe->exec(u, q.pc, false);
            Val a = eval(d.addr);
            ReadReq req;
            req.deliverAt = now + cfg.memLatency + chaosLatency();
            req.addr = a.i;
            req.size = rtl::dataTypeSize(inst.memType);
            req.type = inst.memType;
            req.seq = q.seq;
            exe.checkAddr(req.addr, req.size);
            inflight[side][0].push_back(req);
            if (probe) probe->readIssue(side);
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
            if (probe) probe->exec(u, q.pc, false);
            Val a = eval(d.addr);
            int size = rtl::dataTypeSize(inst.memType);
            exe.checkAddr(a.i, size);
            storeQ[side].push_back({a.i, size, inst.memType, q.seq});
            if (probe) probe->push(qStore(side));
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
        stall(kIfu, c);
    }

    /**
     * Count a cycle unit @p u (0 IEU, 1 FEU, kIfu) lost to @p c; an
     * empty IEU/FEU queue is idleness, not a stall.
     */
    void
    stall(int u, StallCause c)
    {
        if (probe) probe->stall(u, c);
        if (c == StallCause::InstQueueEmpty) {
            ++(u ? stats.feuIdleCycles : stats.ieuIdleCycles);
            return;
        }
        LoopCycleStats &b = *curBucket;
        ++(u == 0 ? stats.ieuStalls : u == 1 ? stats.feuStalls
                                             : stats.ifuStalls)[c];
        ++(u == 0 ? b.ieuStallCycles : u == 1 ? b.feuStallCycles
                                              : b.ifuStallCycles);
        ++b.stalls[c];
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
                    if (probe) probe->ifu(pc);
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
                    if (probe) probe->ifu(pc);
                    if (probe) probe->pop(qCc(side));
                    if (cc == inst.when)
                        pc = exe.target(pc);
                    else
                        ++pc;
                    break;
                  }
                  case InstKind::JumpStream: {
                    if (probe) probe->ifu(pc);
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
                    if (probe) probe->ifu(pc);
                    raStack.push_back(pc + 1);
                    pc = callee;
                    break;
                  }
                  case InstKind::Return:
                    if (probe) probe->ifu(pc);
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
                    if (probe) probe->ifu(pc);
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
                    if (probe) probe->ifu(pc);
                    writeReg(f, eval(d.src));
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
                    if (probe) probe->ifu(pc);
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
                int slot = static_cast<int>(free - scus.data());
                if (probe) probe->streamStart(slot, pc);
                Stream s;
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
                // Empty stream: nothing to do, but the mirror must still
                // say "exhausted"; it retires the cycle it starts.
                s.active = s.count != 0;
                if (findStream(side, inst.fifo, s.input))
                    throw ExecError("stream already active on FIFO");
                s.enqSeqs = std::move(free->enqSeqs); // keep the ring
                s.enqSeqs.clear();
                *free = std::move(s);
                if (probe && !free->active) probe->streamRetire(slot);
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
                if (probe) probe->dispatch(u, pc, streamEnq);
                unitQ[u].push_back({pc, mySeq, streamEnq});
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
        for (int i = 0; i < kNumQueues; ++i) {
            FaultQueueState q;
            q.name = kQueueNames[i];
            q.occupancy = static_cast<int>(occValue(i));
            q.capacity = queueDepth(cfg, i);
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

    /**
     * Run cycles until main has returned and the machine drained
     * (None), the watchdog sees no progress (Deadlock), or the cycle
     * limit is reached (Livelock).
     */
    SimFault
    runCycles()
    {
        while (now < cfg.maxCycles) {
            portsUsed = 0;
            // Chaos withholds a random subset of memory ports this
            // cycle (always granting at least one).
            if (chaos)
                portsUsed = cfg.memPorts - 1 -
                            static_cast<int>(chaosRng.nextBelow(
                                static_cast<uint64_t>(cfg.memPorts)));
            // Attribute this whole cycle to the loop owning the fetch
            // PC as the cycle begins (bucket -1 outside any loop /
            // after return). One bucket per cycle is what makes the
            // buckets sum exactly to total cycles.
            curBucket = &loopBuckets[
                !returned && pc >= 0 &&
                        pc < static_cast<int64_t>(exe.code.size())
                    ? facts[pc].bucket
                    : 0];
            ++curBucket->cycles;
            deliverReads();
            for (int u = 0; u < 2; ++u)
                lastUnitCause[u] = stepUnit(u);
            for (int u = 0; u < 2; ++u)
                if (lastUnitCause[u] != StallCause::None)
                    stall(u, lastUnitCause[u]);
            commitStores();
            stepVEU();
            stepSCUs();
            fetchAndDispatch();
            if (probe) probe->cycleEnd(cycleView());
            ++now;
            if (returned && drained())
                break;
            // Watchdog: the progress sum moves whenever anything
            // architectural or memory-visible happens. A full window
            // without movement is a deadlock; snapshot and diagnose
            // instead of burning to the cycle limit.
            uint64_t p = progressSum();
            if (p != lastProgressSum) {
                lastProgressSum = p;
                lastProgressCycle = now;
            } else if (cfg.watchdogWindow != 0 &&
                       now - lastProgressCycle >= cfg.watchdogWindow) {
                return SimFault::Deadlock;
            }
        }
        // Still making progress at the limit (the watchdog would have
        // fired otherwise): a livelock or an unreasonably long program.
        return now >= cfg.maxCycles ? SimFault::Livelock : SimFault::None;
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
        try {
            res.fault = runCycles();
            if (res.fault == SimFault::None) {
                res.ok = true;
                res.returnValue = rreg[2];
            } else {
                res.faultReport = buildFaultReport(res.fault);
                res.error = (res.fault == SimFault::Deadlock ? "deadlock: "
                                                             : "livelock: ") +
                            res.faultReport.message;
            }
        } catch (const ExecError &e) {
            res.error = e.what();
            res.fault = SimFault::RuntimeError;
        }
        stats.cycles = now;
        for (const LoopCycleStats &b : loopBuckets)
            if (b.cycles)
                stats.loops.push_back(b);
        if (probe) probe->runEnd(now, stats);
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
