/**
 * @file
 * Critical-path sink: builds the causal scheduling DAG (obs/critpath.h)
 * from the simulator's probe events, one DAG event per unit of forward
 * progress, in event order, so arena order is topological (DESIGN.md
 * §14 maps machine actions to events and deps). Latencies follow the
 * cycle's phase order: a slot freed or a value made in an earlier phase
 * is usable the same cycle (0), one from a later phase the next (1).
 * The sink mirrors the machine's queues from push and pop events, so
 * it knows the producer of every buffered value, and keeps every
 * per-unit and per-stream chain itself.
 */

#include "obs/critpath.h"
#include "support/ring.h"
#include "wmsim/probe.h"

namespace wmstream::wmsim {

namespace {

using rtl::Inst;
using rtl::InstKind;
using rtl::RegFile;
using S = StallCause;

/** DAG units, registered in this order. */
enum Unit : uint8_t { UIfu, UIeu, UFeu, UScu, UVeu, UMem, UEnd, kUnits };
const char *const kUnitNames[kUnits] = {"ifu", "ieu", "feu", "scu",
                                        "veu", "mem", "end"};
/** Model-edge causes outside the stall taxonomy. */
enum Edge : uint8_t {
    Exec, Fetch, MemLat, MemOrder, ScuStartup, ScuIssue, VeuLane,
    StoreAddr, Drain, kEdges
};
const char *const kEdgeNames[kEdges] = {
    "execute",   "fetch",    "mem_latency", "mem_order", "scu_startup",
    "scu_issue", "veu_lane", "store_addr",  "drain"};

class CritPathProbe final : public Probe
{
  public:
    CritPathProbe(obs::CritPath &cp, const SimConfig &cfg,
                  const rtl::Executable &exe)
        : cp_(cp), cfg_(cfg), exe_(exe),
          slots_(static_cast<size_t>(cfg.numSCUs))
    {
        for (int u = 0; u < kUnits; ++u)
            unit_[u] = cp.unit(kUnitNames[u]);
        cause_[0] = obs::CritPath::kCauseStart;
        for (size_t c = 1; c < static_cast<size_t>(S::kCount); ++c)
            cause_[c] = cp.cause(stallCauseName(static_cast<S>(c)));
        for (int e = 0; e < kEdges; ++e)
            edge_[e] = cp.cause(kEdgeNames[e]);
        for (int q = 0; q < kNumQueues; ++q)
            q_[q] = cp.queue(kQueueNames[q], queueDepth(cfg, q), q < qCc(0));
    }

    void
    dispatch(int u, int64_t pc, bool streamEnq) override
    {
        int32_t ev = ifuEvent(pc);
        cp_.pushDep(q_[qInst(u)], id(S::InstQueueFull), 0.0f);
        queued_[qInst(u)].push_back({ev, -1, streamEnq});
    }

    void
    exec(int u, int64_t pc, bool divides) override
    {
        const Inst &inst = *exe_.code[pc].inst;
        Value d = queued_[qInst(u)].front();
        queued_[qInst(u)].pop_front();
        int32_t ev = event(u ? UFeu : UIeu, inst.loopId, wait(unitWait_[u]));
        cp_.dep(d.ev, id(S::InstQueueEmpty), 1.0f);
        cp_.dep(lastExec_[u], edge_[Exec], serialLat_[u]);
        serialLat_[u] = divides ? static_cast<float>(cfg_.divLatency) : 1.0f;
        lastExec_[u] = ev;
        cp_.pop(q_[qInst(u)], ev);
        // A scalar load waited for an input stream on in FIFO 0, an
        // ordinary enqueue for an out-stream on its FIFO, to retire.
        // Stale retires are never binding.
        int s = -1, f = 0, in = 0;
        if (inst.kind == InstKind::Load) {
            s = rtl::isFloatType(inst.memType) ? 1 : 0;
            in = 1;
        } else if (inst.kind == InstKind::Assign && !d.streamEnq &&
                   inst.dst->regFile() != RegFile::CC &&
                   inst.dst->regIndex() <= 1) {
            s = inst.dst->regFile() == RegFile::Flt ? 1 : 0;
            f = inst.dst->regIndex();
        }
        if (s >= 0)
            cp_.dep(lastRetire_[s][f][in], id(S::StreamOwnership), 1.0f);
    }

    void
    ifu(int64_t pc) override
    {
        int32_t ev = ifuEvent(pc);
        const Inst &inst = *exe_.code[pc].inst;
        // A synchronizing action (a cancelling stop, a conversion, a
        // vector op) waited for both units to drain.
        InstKind k = inst.kind;
        if ((k == InstKind::StreamStop && inst.when) ||
                k == InstKind::Assign || k == InstKind::VecOp) {
            cp_.dep(lastExec_[0], id(S::SyncWait), 0.0f);
            cp_.dep(lastExec_[1], id(S::SyncWait), 0.0f);
        }
        if (k == InstKind::VecOp) {
            cp_.dep(lastVeu_, id(S::VeuBusy), 0.0f);
            veuOp_ = ev;
            veuPrev_ = -1;
            veuLoop_ = inst.loopId;
            veuDst_ = qOut(inst.dst->regFile() == RegFile::Flt ? 1 : 0,
                           inst.dst->regIndex());
        }
    }

    void
    stall(int u, StallCause c) override
    {
        // The unit's next event takes it as its wait cause.
        (u == kIfu ? ifuWait_ : unitWait_[u]) = c;
    }

    void
    push(int q) override
    {
        // A stream read or a VEU element reserved its slot already.
        if (reserved_)
            reserved_ = false;
        else
            cp_.pushDep(q_[q],
                        id(q >= qStore(0) ? S::StoreQueueFull
                           : q >= qCc(0)  ? S::CcFifoFull
                                          : S::DataFifoFull),
                        1.0f);
        queued_[q].push_back({cur_, curLoop_, false});
    }

    void
    pop(int q) override
    {
        // FIFOs: a data dep on the value's producer.
        if (q < qInst(0))
            cp_.dep(queued_[q].empty() ? -1 : queued_[q].front().ev,
                    id(q < qCc(0) ? S::DataFifoEmpty : S::CcFifoEmpty),
                    0.0f);
        if (!queued_[q].empty())
            queued_[q].pop_front();
        cp_.pop(q_[q], cur_);
    }

    void
    readIssue(int side) override
    {
        inflight_[side][0].push_back({cur_, curLoop_, -1});
    }

    void
    readDeliver(int side, int fifo, bool ordered) override
    {
        Request r = inflight_[side][fifo].front();
        inflight_[side][fifo].pop_front();
        int32_t ev = event(UMem, r.slot >= 0 ? slots_[r.slot].loop : r.loop);
        cp_.dep(r.ev, edge_[MemLat], static_cast<float>(cfg_.memLatency));
        if (ordered) // the most recent commit bounds the wait
            cp_.dep(lastStoreCommit_, edge_[MemOrder], 1.0f);
        lastDelivery_ = ev;
        if (r.slot >= 0) {
            slots_[r.slot].lastElemEv = ev;
            reserved_ = true;
        }
    }

    void
    readDiscard(int side, int fifo) override
    {
        Request r = inflight_[side][fifo].front();
        inflight_[side][fifo].pop_front();
        int32_t ev = event(UMem, slots_[r.slot].loop);
        cp_.dep(ev >= 0 ? r.ev : -1, edge_[MemLat],
                static_cast<float>(cfg_.memLatency));
        cp_.pop(q_[qIn(side, fifo)], ev);
    }

    void
    storeCommit(int side) override
    {
        const Value &st = queued_[qStore(side)].front();
        lastStoreCommit_ = event(UMem, st.loop);
        cp_.dep(st.ev, edge_[StoreAddr], 0.0f);
    }

    void
    streamStart(int slot, int64_t pc) override
    {
        const Inst &inst = *exe_.code[pc].inst;
        int side = inst.side == rtl::UnitSide::Flt ? 1 : 0;
        bool input = inst.kind == InstKind::StreamIn;
        int32_t ev = ifuEvent(pc);
        // Gated on the IEU drain, a free SCU slot and the FIFO's last
        // stream having retired.
        Slot &s = slots_[slot];
        cp_.dep(lastExec_[0], id(S::ScuDrainWait), 0.0f);
        cp_.dep(s.retireEv, id(S::ScuUnavailable), 0.0f);
        cp_.dep(lastRetire_[side][inst.fifo][input ? 1 : 0],
                id(S::ScuFifoBusy), 0.0f);
        s = {input, side, inst.fifo, inst.loopId, ev, -1, -1, s.retireEv};
    }

    void
    streamIssue(int slot) override
    {
        Slot &s = slots_[slot];
        int32_t ev = scuEvent(s);
        cp_.pushDep(q_[qIn(s.side, s.fifo)], id(S::DataFifoFull), 0.0f);
        inflight_[s.side][s.fifo].push_back({ev, s.loop, slot});
    }

    void
    streamWrite(int slot) override
    {
        slots_[slot].lastElemEv = scuEvent(slots_[slot]);
    }

    void
    streamRetire(int slot) override
    {
        retire(slots_[slot], slots_[slot].lastElemEv);
    }

    void
    streamCancel(int slot) override
    {
        // The discarded values, buffered or read by the stream and in
        // flight, are freed by the stop event.
        Slot &s = slots_[slot];
        int q = qIn(s.side, s.fifo);
        size_t discarded = queued_[q].size();
        for (const Request &r : inflight_[s.side][s.fifo])
            discarded += r.slot >= 0 ? 1 : 0;
        for (size_t k = 0; k < discarded; ++k)
            cp_.pop(q_[q], cur_);
        queued_[q].clear();
        inflight_[s.side][s.fifo].clear();
        retire(s, cur_);
    }

    void
    veuElement() override
    {
        int32_t ev = event(UVeu, veuLoop_);
        if (veuPrev_ >= 0)
            cp_.dep(veuPrev_, edge_[VeuLane],
                    1.0f / static_cast<float>(cfg_.veuLanes));
        else
            cp_.dep(veuOp_, edge_[Exec], 1.0f);
        veuPrev_ = lastVeu_ = ev;
        cp_.pushDep(q_[veuDst_], id(S::DataFifoFull), 1.0f);
        reserved_ = true;
    }

    void cycleEnd(const CycleView &v) override { now_ = v.cycle + 1; }

    void
    runEnd(uint64_t cycle, SimStats & /*stats*/) override
    {
        // The run ends when the last unit's final activity has
        // drained; the binding drain edge names that unit.
        int32_t ev = cp_.event(cycle, unit_[UEnd], -1, 0);
        for (int32_t last : {lastIfu_, lastExec_[0], lastExec_[1],
                             lastStoreCommit_, lastDelivery_, lastVeu_})
            cp_.dep(last, edge_[Drain], 0.0f);
        for (const Slot &s : slots_)
            cp_.dep(s.lastElemEv, edge_[Drain], 0.0f);
        cp_.setEnd(ev);
    }

  private:
    /** A queued value and the event that produced it. */
    struct Value
    {
        int32_t ev;
        int loop;       ///< store queue: loop of the address generation
        bool streamEnq; ///< instruction queue: see Probe::dispatch
    };
    /** A read in flight, and the stream slot that issued it (or -1). */
    struct Request
    {
        int32_t ev;
        int loop;
        int slot;
    };
    /** The stream on one SCU slot. */
    struct Slot
    {
        bool input = true;
        int side = 0, fifo = 0, loop = -1;
        int32_t startEv = -1;
        int32_t lastIssueEv = -1; ///< serial chain through the SCU
        int32_t lastElemEv = -1;  ///< last delivery or write
        int32_t retireEv = -1;    ///< retire of the slot's last stream
    };

    uint8_t id(StallCause c) const { return cause_[static_cast<size_t>(c)]; }

    /** Recorder cause of the stall @p c holds, which it clears. */
    uint8_t
    wait(StallCause &c)
    {
        uint8_t w = c == S::None ? 0 : id(c);
        c = S::None;
        return w;
    }

    int32_t
    event(Unit u, int loop, uint8_t waitCause = 0)
    {
        curLoop_ = loop;
        return cur_ = cp_.event(now_, unit_[u], loop, waitCause);
    }

    int32_t
    ifuEvent(int64_t pc)
    {
        int32_t ev = event(UIfu, exe_.code[pc].inst->loopId, wait(ifuWait_));
        cp_.dep(lastIfu_, edge_[Fetch],
                1.0f / static_cast<float>(cfg_.fetchWidth));
        return lastIfu_ = ev;
    }

    int32_t
    scuEvent(Slot &s)
    {
        int32_t ev = event(UScu, s.loop);
        if (s.lastIssueEv >= 0)
            cp_.dep(s.lastIssueEv, edge_[ScuIssue],
                    1.0f / static_cast<float>(cfg_.scuBurst));
        else
            cp_.dep(s.startEv, edge_[ScuStartup],
                    static_cast<float>(cfg_.scuStartupCycles));
        return s.lastIssueEv = ev;
    }

    void
    retire(Slot &s, int32_t ev)
    {
        s.retireEv = ev >= 0 ? ev : s.startEv;
        lastRetire_[s.side][s.fifo][s.input ? 1 : 0] = s.retireEv;
    }

    obs::CritPath &cp_;
    const SimConfig cfg_;
    const rtl::Executable &exe_;
    uint64_t now_ = 0;
    uint8_t unit_[kUnits] = {};
    uint8_t edge_[kEdges] = {};
    /** StallCause -> recorder cause ([0] = the reserved start cause). */
    uint8_t cause_[static_cast<size_t>(S::kCount)] = {};
    int q_[kNumQueues] = {};

    /** Each queue's values, by producer event. */
    support::Ring<Value> queued_[kNumQueues];
    support::Ring<Request> inflight_[2][2];
    std::vector<Slot> slots_;

    int32_t cur_ = -1; ///< latest event; deps and pops attach to it
    int curLoop_ = -1;
    bool reserved_ = false; ///< the next push's slot is reserved
    int32_t lastIfu_ = -1, lastStoreCommit_ = -1, lastDelivery_ = -1;
    int32_t lastExec_[2] = {-1, -1};
    float serialLat_[2] = {1.0f, 1.0f};
    int32_t lastVeu_ = -1, veuOp_ = -1, veuPrev_ = -1;
    int veuLoop_ = -1, veuDst_ = 0;
    /** Retire event of the last stream per [side][fifo][input]. */
    int32_t lastRetire_[2][2][2] = {{{-1, -1}, {-1, -1}},
                                    {{-1, -1}, {-1, -1}}};
    /** Last stall per unit since its previous event. */
    StallCause unitWait_[2] = {S::None, S::None};
    StallCause ifuWait_ = S::None;
};

} // anonymous namespace

std::unique_ptr<Probe>
makeCritPathProbe(const SimConfig &cfg, const rtl::Executable &exe)
{
    return std::make_unique<CritPathProbe>(*cfg.critpath, cfg, exe);
}

} // namespace wmstream::wmsim
