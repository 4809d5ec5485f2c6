/**
 * @file
 * The WM FIFO-discipline linter: abstract queue-depth dataflow.
 *
 * The queue model (identities, per-instruction push/pop shapes,
 * streamed-region discovery, count resolution) lives in fifo_model.h.
 * This file holds the per-pass checks:
 *
 *  - streamed-region balance: every iteration of a streamed loop pops
 *    exactly one element from each claimed input queue and pushes
 *    exactly one to each claimed output queue — so a loop running
 *    `count` iterations consumes exactly the `count` elements its
 *    preheader SinX primes — and all stream counts feeding one region
 *    agree (resolved through preheader copies, which is how the
 *    deliberately injected under-count miscompile is caught
 *    statically);
 *  - the global depth walk: joins require exact depth equality (a
 *    queue cannot hold a path-dependent number of elements), calls
 *    and returns require all depths zero, and no instruction may pop
 *    the same queue twice (the relative order of two dequeues inside
 *    one instruction is unspecified, so FIFO reads must never be
 *    reordered across a pop on the same unit).
 *
 * Both walks are one keep-first fixpoint (keepFirstWalk) on the
 * dataflow engine's general solver (src/dataflow). The depth walk
 * also records each queue's high-water mark, saturation and starved
 * pops (QueueTraffic): the whole-program deadlock verdict and depth
 * requirement (fifodepth.cc) are read off those records, not off a
 * walk of their own.
 */

#include "verify/verify.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "cfg/dominators.h"
#include "cfg/loops.h"
#include "dataflow/cfg_index.h"
#include "dataflow/solver.h"
#include "rtl/inst.h"
#include "support/str.h"
#include "verify/fifo_model.h"

namespace wmstream::verify {

namespace {

using rtl::Expr;
using rtl::ExprPtr;
using rtl::Inst;
using rtl::InstKind;
using rtl::RegFile;
using rtl::UnitSide;

using detail::addViolation;

using namespace fifomodel;

/** Fill the violation's loop context fields. */
void
inLoop(Violation &v, const StreamRegion &r)
{
    v.loopHeader = r.header;
}

/**
 * The one queue-state walk, shared by region balance and the
 * whole-function depth walk: a forward fixpoint from @p seed at block
 * @p start whose join keeps the first state to reach a block. Later
 * arrivals are only compared slot by slot and the disagreeing slots
 * noted for that block, so states never widen and the walk terminates
 * without a cap. Then @p emit(block, in, badSlots) runs once per
 * reached block in reverse post-order, for deterministic output.
 * Returns the stable in-states.
 */
template <typename State, typename Transfer, typename Edge,
          typename Emit>
dataflow::GeneralResult<State>
keepFirstWalk(const dataflow::CfgIndex &cfg, size_t start,
              const State &seed, Transfer transfer, Edge edgeOk,
              Emit emit)
{
    std::map<size_t, std::set<size_t>> bad;
    auto join = [&](State &accum, const State &incoming, size_t to) {
        for (size_t k = 0; k < accum.size(); ++k)
            if (accum[k] != incoming[k])
                bad[to].insert(k);
        return false; // keep-first: state never widens
    };
    std::vector<std::pair<size_t, State>> seeds{{start, seed}};
    auto solved = dataflow::solveGeneralSeeded(
        cfg, dataflow::Direction::Forward, seeds, transfer, join,
        edgeOk);
    const std::set<size_t> none;
    for (size_t bi : cfg.rpo()) {
        if (!solved.reached[bi])
            continue;
        auto it = bad.find(bi);
        emit(bi, solved.in[bi], it == bad.end() ? none : it->second);
    }
    return solved;
}

/** Per-iteration pop/push balance inside one streamed loop. */
void
checkRegionBalance(const StreamRegion &r, const rtl::Function &fn,
                   const dataflow::CfgIndex &cfg, VerifyReport &out)
{
    const cfg::Loop &loop = *r.loop;
    size_t n = r.streams.size();
    if (n == 0)
        return;
    // State: per claimed stream, (pops, pushes) of its queue on the
    // path from the header to here, back edges excluded.
    using State = std::vector<std::array<int16_t, 2>>;

    auto transfer = [&](size_t bi, State s) {
        for (const Inst &inst : cfg.block(bi)->insts) {
            InstQueueOps ops = queueOps(inst);
            for (const QueueUse &p : ops.pops) {
                auto it = r.slotOf.find(p.q);
                if (it != r.slotOf.end() &&
                        s[it->second][0] < kSaturatedDepth)
                    ++s[it->second][0];
            }
            for (int q : ops.pushes) {
                auto it = r.slotOf.find(q);
                if (it != r.slotOf.end() &&
                        s[it->second][1] < kSaturatedDepth)
                    ++s[it->second][1];
            }
        }
        return s;
    };
    // Walk the loop body from the header, back edges excluded;
    // paths that disagree at a join are mismatches.
    auto edgeOk = [&](size_t, size_t to) {
        rtl::Block *tb = cfg.block(to);
        return loop.contains(tb) && tb != loop.header;
    };
    auto emit = [&](size_t bi, const State &,
                    const std::set<size_t> &bad) {
        for (size_t k : bad) {
            Violation &v =
                addViolation(out, "fifo-join-mismatch", fn);
            v.block = cfg.block(bi)->label();
            inLoop(v, r);
            v.invariant = queueName(r.streams[k].q());
            v.detail = "streamed-loop paths disagree on elements "
                       "moved per iteration at this join";
        }
    };
    auto solved = keepFirstWalk(cfg, cfg.indexOf(loop.header),
                                State(n, {0, 0}), transfer, edgeOk,
                                emit);

    // Every latch must arrive with exactly one pop per claimed input
    // queue and one push per claimed output queue — the loop body
    // moves exactly one element per queue per iteration, so `count`
    // iterations consume exactly the `count` elements primed.
    for (rtl::Block *latch : loop.latches) {
        size_t li = cfg.indexOf(latch);
        if (!solved.reached[li])
            continue; // unreachable from header without back edges
        State s = transfer(li, solved.in[li]);
        for (size_t k = 0; k < n; ++k) {
            bool output = r.streams[k].output();
            int pops = s[k][0];
            int pushes = s[k][1];
            std::string qn = queueName(r.streams[k].q());
            int want = output ? pushes : pops;
            if (want != 1) {
                Violation &v = addViolation(
                    out, output ? "fifo-push-imbalance"
                                : "fifo-pop-imbalance",
                    fn);
                v.block = latch->label();
                inLoop(v, r);
                v.invariant = qn;
                v.detail = strFormat(
                    "%d %s(s) of %s per iteration on the path "
                    "through latch %s; a streamed loop must %s "
                    "exactly one element per iteration",
                    want, output ? "push" : "pop", qn.c_str(),
                    latch->label().c_str(),
                    output ? "enqueue" : "dequeue");
            }
            int other = output ? pops : pushes;
            if (other != 0) {
                Violation &v = addViolation(
                    out, output ? "fifo-pop-imbalance"
                                : "fifo-push-imbalance",
                    fn);
                v.block = latch->label();
                inLoop(v, r);
                v.invariant = qn;
                v.detail = strFormat(
                    "%s %s inside the streamed loop that claims it "
                    "as a%s queue",
                    qn.c_str(), output ? "popped" : "pushed",
                    output ? "n output" : "n input");
            }
        }
    }
}

// ---- the global depth walk -----------------------------------------

using DepthState = std::array<int16_t, kQueues>;

struct WalkCtx
{
    bool trackData = false; ///< PostLower: scalar FIFO traffic legal
    const std::set<std::pair<const rtl::Block *, int>> *exempt;
    QueueTraffic *traffic = nullptr; ///< filled while emitting
};

/**
 * Apply block @p b to @p s. With @p out set (the emission pass) also
 * report violations into it and record queue traffic into
 * ctx.traffic; during the fixpoint @p out is null.
 */
DepthState
depthTransfer(const rtl::Block *b, DepthState s, const WalkCtx &ctx,
              const rtl::Function &fn, VerifyReport *out)
{
    QueueTraffic *rec = out ? ctx.traffic : nullptr;
    auto emit = [&](std::string reason, const Inst &inst,
                    int q) -> Violation & {
        Violation &v = addViolation(*out, std::move(reason), fn);
        v.block = b->label();
        v.instId = inst.id;
        v.pos = inst.pos;
        v.invariant = queueName(q);
        return v;
    };
    for (const Inst &inst : b->insts) {
        InstQueueOps ops = queueOps(inst);
        for (const QueueUse &p : ops.pops) {
            bool cc = p.q >= kDataQueues;
            if (!cc) {
                if (ctx.exempt->count({b, p.q}))
                    continue;
                if (!ctx.trackData) {
                    if (out)
                        emit("fifo-outside-stream", inst, p.q)
                            .detail = strFormat(
                            "FIFO register read in %s operand outside "
                            "any streamed region before lowering",
                            fieldName(p.field));
                    continue;
                }
            }
            if (rec)
                rec->touched[p.q] = true;
            if (s[p.q] == 0) {
                if (rec)
                    rec->starved[p.q] = true;
                if (out)
                    emit(cc ? "cc-underflow" : "fifo-underflow", inst,
                         p.q)
                        .detail = cc
                        ? std::string(
                              "branch consumes a condition code no "
                              "compare produced on this path")
                        : std::string(
                              "dequeue from an empty queue on this "
                              "path");
            } else if (s[p.q] < kSaturatedDepth) {
                --s[p.q]; // a saturated count stays saturated
            }
        }
        for (int q : ops.pushes) {
            bool cc = q >= kDataQueues;
            if (!cc) {
                if (ctx.exempt->count({b, q}))
                    continue;
                if (!ctx.trackData) {
                    if (out)
                        emit("fifo-outside-stream", inst, q).detail =
                            "FIFO register written outside any "
                            "streamed region before lowering";
                    continue;
                }
            }
            if (s[q] < kSaturatedDepth)
                ++s[q];
            if (rec) {
                rec->touched[q] = true;
                rec->highWater[q] = std::max<int>(rec->highWater[q], s[q]);
                if (s[q] >= kSaturatedDepth)
                    rec->saturated[q] = true;
            }
        }
        if (inst.kind == InstKind::Call) {
            for (int q = 0; q < kQueues; ++q) {
                if (s[q] == 0)
                    continue;
                if (out)
                    emit(q >= kDataQueues ? "cc-held-across-call"
                                          : "fifo-held-across-call",
                         inst, q)
                        .detail = strFormat(
                        "%d element(s) in %s across a call; the "
                        "callee's queue traffic would interleave",
                        s[q], queueName(q).c_str());
                s[q] = 0;
            }
        }
        if (inst.kind == InstKind::Return) {
            for (int q = 0; q < kQueues; ++q) {
                if (s[q] == 0)
                    continue;
                if (out)
                    emit(q >= kDataQueues ? "cc-overproduction"
                                          : "fifo-leak",
                         inst, q)
                        .detail = strFormat(
                        "%d element(s) left in %s at return", s[q],
                        queueName(q).c_str());
                s[q] = 0;
            }
        }
    }
    return s;
}

void
depthWalk(rtl::Function &fn, const dataflow::CfgIndex &cfg,
          const WalkCtx &ctx, VerifyReport &out)
{
    if (!fn.entry())
        return;
    auto transfer = [&](size_t bi, const DepthState &s) {
        return depthTransfer(cfg.block(bi), s, ctx, fn, nullptr);
    };
    auto emit = [&](size_t bi, const DepthState &in,
                    const std::set<size_t> &bad) {
        rtl::Block *b = cfg.block(bi);
        (void)depthTransfer(b, in, ctx, fn, &out);
        for (size_t slot : bad) {
            int q = static_cast<int>(slot);
            Violation &v = addViolation(
                out, q >= kDataQueues ? "cc-join-mismatch"
                                      : "fifo-join-mismatch",
                fn);
            v.block = b->label();
            v.invariant = queueName(q);
            v.detail = "queue depth differs between predecessor "
                       "paths at this join";
        }
    };
    keepFirstWalk(cfg, cfg.indexOf(fn.entry()), DepthState{}, transfer,
                  [](size_t, size_t) { return true; }, emit);
}

} // anonymous namespace

namespace detail {

void
checkQueueDiscipline(rtl::Function &fn,
                     const rtl::MachineTraits &traits,
                     const VerifyOptions &opts, VerifyReport &out,
                     QueueTraffic *traffic)
{
    cfg::DominatorTree dt(fn);
    cfg::LoopInfo li(fn, dt);
    dataflow::CfgIndex cfg(fn);

    // ---- per-instruction: no double pop of one queue ----
    // Two dequeues of the same queue inside one instruction have an
    // unspecified relative order: FIFO reads must never be reordered
    // across a pop on the same unit.
    for (const auto &bp : fn.blocks()) {
        for (const Inst &inst : bp->insts) {
            InstQueueOps ops = queueOps(inst);
            std::map<int, int> perQueue;
            for (const QueueUse &p : ops.pops)
                ++perQueue[p.q];
            for (const auto &kv : perQueue) {
                if (kv.second < 2 || kv.first >= kDataQueues)
                    continue;
                Violation &v =
                    addViolation(out, "ambiguous-pop-order", fn);
                v.block = bp->label();
                v.instId = inst.id;
                v.pos = inst.pos;
                v.invariant = queueName(kv.first);
                v.detail = strFormat(
                    "%d dequeues of %s in one instruction; their "
                    "relative order is unspecified",
                    kv.second, queueName(kv.first).c_str());
            }
        }
    }

    // ---- streamed regions ----
    std::vector<StreamRegion> regions = collectStreamRegions(li);
    std::set<const Inst *> matchedSteering;
    for (StreamRegion &r : regions) {
        cfg::Loop &loop = *r.loop;

        // Two streams on one queue cannot coexist.
        for (size_t i : r.claimConflicts) {
            Violation &v =
                addViolation(out, "stream-fifo-conflict", fn);
            v.block = r.streams[i].block->label();
            inLoop(v, r);
            v.invariant = queueName(r.streams[i].q());
            v.detail = "two streams feeding one loop claim the "
                       "same queue";
        }

        // All counts null (data-dependent, "infinite") or all
        // non-null (counted); a mix can never balance.
        size_t counted = 0;
        for (const StreamSite &s : r.streams)
            if (s.inst->count)
                ++counted;
        if (counted != 0 && counted != r.streams.size()) {
            Violation &v =
                addViolation(out, "stream-count-mismatch", fn);
            inLoop(v, r);
            v.block = r.streams[0].block->label();
            v.invariant = queueName(r.streams[0].q());
            v.detail = "counted and uncounted streams feed the same "
                       "loop";
        }

        // Counted loops iterate under a JumpStream latch; uncounted
        // ones exit on a data-dependent CondJump.
        if (!r.streams.empty() && r.finite != r.jumpStreamLatch) {
            Violation &v =
                addViolation(out, "stream-loop-shape", fn);
            inLoop(v, r);
            v.block = r.header;
            v.invariant = queueName(r.streams[0].q());
            v.detail = r.finite
                ? "counted streams but the latch is not steered by "
                  "a jump-stream"
                : "jump-stream latch over uncounted streams";
        }

        // Counted streams feeding one loop must agree on the count —
        // the loop pops one element per queue per iteration, so
        // differing counts starve or wedge a queue. Resolved through
        // preheader copies so syntactic differences don't matter.
        if (r.finite) {
            const StreamSite &ref = r.streams[0];
            for (size_t i = 1; i < r.streams.size(); ++i) {
                const StreamSite &s = r.streams[i];
                std::string why;
                if (countsAgree(ref, s.block, s.index, s.inst->count,
                                traits, &why))
                    continue;
                Violation &v =
                    addViolation(out, "stream-count-mismatch", fn);
                v.block = s.block->label();
                inLoop(v, r);
                v.invariant = queueName(s.q());
                v.pos = s.inst->pos;
                v.detail = strFormat(
                    "stream on %s disagrees with the stream on %s: "
                    "%s",
                    queueName(s.q()).c_str(),
                    queueName(ref.q()).c_str(), why.c_str());
            }
        }

        // Each JumpStream latch must be steered by a claimed stream.
        for (rtl::Block *l : loop.latches) {
            const Inst *t = l->terminator();
            if (!t || t->kind != InstKind::JumpStream)
                continue;
            int side = t->side == UnitSide::Int ? 0 : 1;
            bool found = r.slotOf.count(dataQ(false, side, t->fifo)) ||
                         r.slotOf.count(dataQ(true, side, t->fifo));
            if (found) {
                matchedSteering.insert(t);
            } else {
                Violation &v =
                    addViolation(out, "jumpstream-no-stream", fn);
                v.block = l->label();
                inLoop(v, r);
                v.instId = t->id;
                v.pos = t->pos;
                v.invariant =
                    strFormat("%c%d", side ? 'f' : 'r', t->fifo);
                v.detail = "jump-stream latch steered by a FIFO no "
                           "stream feeds";
            }
        }

        // A counted streamed loop has exactly one way out: the
        // steering latch falling through when the stream is done.
        // Any other exit abandons unconsumed elements.
        if (r.finite) {
            for (rtl::Block *b : loop.exiting) {
                const Inst *t = b->terminator();
                if (t && t->kind == InstKind::JumpStream)
                    continue;
                for (const StreamSite &s : r.streams) {
                    Violation &v =
                        addViolation(out, "fifo-leak", fn);
                    v.block = b->label();
                    inLoop(v, r);
                    v.invariant = queueName(s.q());
                    v.detail = strFormat(
                        "counted stream loop can exit early via %s, "
                        "abandoning queued elements",
                        b->label().c_str());
                }
            }
        }

        // An uncounted stream runs until cancelled: every exit
        // target must stop every claimed stream.
        if (!r.finite && !r.streams.empty()) {
            for (rtl::Block *b : loop.exiting) {
                for (rtl::Block *succ : b->succs) {
                    if (loop.contains(succ))
                        continue;
                    for (const StreamSite &s : r.streams) {
                        bool input = !s.output();
                        bool stopped = false;
                        for (const Inst &inst : succ->insts)
                            if (inst.kind == InstKind::StreamStop &&
                                    inst.side == s.inst->side &&
                                    inst.fifo == s.inst->fifo &&
                                    inst.when == input)
                                stopped = true;
                        if (stopped)
                            continue;
                        Violation &v = addViolation(
                            out, "stream-stop-missing", fn);
                        v.block = succ->label();
                        inLoop(v, r);
                        v.invariant = queueName(s.q());
                        v.detail = strFormat(
                            "loop exit %s does not cancel the "
                            "uncounted stream on %s",
                            succ->label().c_str(),
                            queueName(s.q()).c_str());
                    }
                }
            }
        }

        checkRegionBalance(r, fn, cfg, out);
    }

    // A JumpStream that is not the steering latch of any streamed
    // loop spins on a stream nothing primes.
    for (const auto &bp : fn.blocks()) {
        for (const Inst &inst : bp->insts) {
            if (inst.kind != InstKind::JumpStream ||
                    matchedSteering.count(&inst))
                continue;
            Violation &v =
                addViolation(out, "jumpstream-no-stream", fn);
            v.block = bp->label();
            v.instId = inst.id;
            v.pos = inst.pos;
            v.invariant =
                strFormat("%c%d",
                          inst.side == UnitSide::Flt ? 'f' : 'r',
                          inst.fifo);
            v.detail =
                "jump-stream outside any streamed loop latch";
        }
    }

    // ---- vectorized regions ----
    // A VecOp consumes whole streams on the VEU: every FIFO operand
    // must be fed by a stream in this or a predecessor block, and the
    // element counts must agree.
    const auto &blocks = fn.blocks();
    for (size_t bi = 0; bi < blocks.size(); ++bi) {
        rtl::Block *b = blocks[bi].get();
        for (size_t i = 0; i < b->insts.size(); ++i) {
            const Inst &inst = b->insts[i];
            if (inst.kind != InstKind::VecOp)
                continue;
            // Gather candidate stream sites: earlier in this block,
            // in CFG predecessors, and in the layout predecessor.
            std::vector<StreamSite> sites;
            auto scan = [&](const rtl::Block *sb, size_t limit) {
                for (size_t k = 0; k < limit; ++k) {
                    const Inst &cand = sb->insts[k];
                    if (cand.kind == InstKind::StreamIn ||
                            cand.kind == InstKind::StreamOut)
                        sites.push_back({&cand, sb, k});
                }
            };
            scan(b, i);
            for (const rtl::Block *p : b->preds)
                scan(p, p->insts.size());
            if (bi > 0)
                scan(blocks[bi - 1].get(),
                     blocks[bi - 1]->insts.size());

            auto need = [&](const ExprPtr &opnd, bool output) {
                if (!opnd || !opnd->isReg() || !isDataFifoReg(*opnd))
                    return;
                int q = dataQ(output, fifoSide(*opnd),
                              opnd->regIndex());
                const StreamSite *feed = nullptr;
                for (const StreamSite &s : sites)
                    if (s.q() == q)
                        feed = &s;
                if (!feed) {
                    Violation &v =
                        addViolation(out, "vec-no-stream", fn);
                    v.block = b->label();
                    v.instId = inst.id;
                    v.pos = inst.pos;
                    v.invariant = queueName(q);
                    v.detail = strFormat(
                        "vector operation %s %s but no stream feeds "
                        "it",
                        output ? "writes" : "reads",
                        queueName(q).c_str());
                    return;
                }
                std::string why;
                if (!inst.count || countsAgree(*feed, b, i, inst.count,
                                               traits, &why)) {
                    return;
                }
                Violation &v =
                    addViolation(out, "stream-count-mismatch", fn);
                v.block = b->label();
                v.instId = inst.id;
                v.pos = inst.pos;
                v.invariant = queueName(q);
                v.detail = strFormat(
                    "vector element count disagrees with the stream "
                    "on %s: %s",
                    queueName(q).c_str(), why.c_str());
            };
            need(inst.src, false);
            need(inst.vecSrc2, false);
            need(inst.dst, true);
        }
    }

    // ---- the global depth walk ----
    // Claimed queues inside their streamed loop are the streams'
    // business (checked per region above); exempt them here.
    std::set<std::pair<const rtl::Block *, int>> exempt;
    for (const StreamRegion &r : regions)
        for (const auto &kv : r.slotOf) {
            if (traffic)
                traffic->claimed[kv.first] = true;
            for (rtl::Block *b : r.loop->blocks)
                exempt.insert({b, kv.first});
        }

    WalkCtx ctx;
    ctx.trackData = opts.stage == Stage::PostLower;
    ctx.exempt = &exempt;
    ctx.traffic = traffic;
    depthWalk(fn, cfg, ctx, out);
}

} // namespace detail

} // namespace wmstream::verify
