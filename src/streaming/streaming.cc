#include "streaming/streaming.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "cfg/liveness.h"
#include "opt/partitions.h"
#include "support/diag.h"
#include "support/str.h"

namespace wmstream::streaming {

using cfg::RegKey;
using opt::BasicIV;
using opt::LinForm;
using opt::MemRef;
using opt::Partition;
using opt::PartitionSet;
using rtl::DataType;
using rtl::ExprPtr;
using rtl::Inst;
using rtl::InstKind;
using rtl::Op;
using rtl::UnitSide;

namespace {

/** Step 1: the loop's trip count. */
struct TripCount
{
    enum class Kind { Unknown, Expr, Const };
    Kind kind = Kind::Unknown;
    int64_t constVal = 0;
    /** T = sign * (bound - iv) + addend, evaluated in the preheader. */
    const BasicIV *iv = nullptr;
    LinForm bound;
    int sign = 1;
    int64_t addend = 0;
    /** The compare and branch instructions realizing the loop test. */
    rtl::Block *latch = nullptr;
    size_t cmpIndex = 0;
    size_t jmpIndex = 0;
};

/**
 * Derive the trip count of a bottom-tested loop: the latch ends with
 * compare + conditional jump back to the header, the compare relates
 * the just-incremented IV to a loop-invariant bound, and the step is
 * +/-1 (wider steps fall back to infinite streams).
 */
TripCount
deriveTripCount(cfg::Loop &loop, opt::IndVarAnalysis &ivs)
{
    TripCount tc;
    if (loop.latches.size() != 1)
        return tc;
    rtl::Block *latch = loop.latches[0];
    if (latch->insts.size() < 2)
        return tc;
    const Inst &jmp = latch->insts.back();
    if (jmp.kind != InstKind::CondJump ||
            jmp.target != loop.header->label()) {
        return tc;
    }
    // Find the compare feeding this branch: the last CC write of the
    // branch's side.
    size_t cmpIdx = latch->insts.size();
    for (size_t i = latch->insts.size() - 1; i-- > 0;) {
        const Inst &inst = latch->insts[i];
        if (inst.kind == InstKind::Assign &&
                inst.dst->regFile() == rtl::RegFile::CC &&
                inst.dst->regIndex() ==
                    (jmp.side == UnitSide::Int ? 0 : 1)) {
            cmpIdx = i;
            break;
        }
    }
    if (cmpIdx >= latch->insts.size())
        return tc;
    const Inst &cmp = latch->insts[cmpIdx];
    if (cmp.src->kind() != rtl::Expr::Kind::Bin ||
            !rtl::isRelationalOp(cmp.src->op())) {
        return tc;
    }

    for (const BasicIV &iv : ivs.basicIVs()) {
        if (iv.step != 1 && iv.step != -1)
            continue;
        opt::InstPoint at{latch, cmpIdx};
        LinForm lf = ivs.linearize(cmp.src->lhs(), iv, at);
        LinForm rf = ivs.linearize(cmp.src->rhs(), iv, at);
        if (!lf.valid || !rf.valid)
            continue;
        Op rel = cmp.src->op();
        // Normalize to iv-side on the left.
        if (lf.coeff == 0 && rf.coeff == 1) {
            std::swap(lf, rf);
            rel = rtl::swapRelational(rel);
        }
        if (lf.coeff != 1 || rf.coeff != 0)
            continue;
        if (lf.baseKind != LinForm::Base::None)
            continue;
        if (rf.baseKind == LinForm::Base::Unknown)
            continue;
        if (!jmp.when)
            rel = rtl::negateRelational(rel);
        // Continue while (iv_entry + lf.offset) rel bound.
        // With d = lf.offset (normally == step), body executions:
        //   T = number of k >= 1 until (iv0 + k*step + (d - step)) fails.
        // We require d == step (the canonical bottom test).
        if (lf.offset != iv.step)
            continue;
        int64_t s = iv.step;
        int sign;
        int64_t addend;
        bool ok = true;
        switch (rel) {
          case Op::Lt:
            ok = s > 0;
            sign = 1;
            addend = 0;
            break; // T = B - iv0
          case Op::Le:
            ok = s > 0;
            sign = 1;
            addend = 1;
            break; // T = B - iv0 + 1
          case Op::Gt:
            ok = s < 0;
            sign = -1;
            addend = 0;
            break; // T = iv0 - B
          case Op::Ge:
            ok = s < 0;
            sign = -1;
            addend = 1;
            break;
          case Op::Ne:
            sign = s > 0 ? 1 : -1;
            addend = 0;
            break;
          default:
            ok = false;
            sign = 1;
            addend = 0;
            break;
        }
        if (!ok)
            continue;

        tc.iv = &iv;
        tc.bound = rf; // bound value = base + rf.offset
        tc.sign = sign;
        tc.addend = addend;
        tc.latch = latch;
        tc.cmpIndex = cmpIdx;
        tc.jmpIndex = latch->insts.size() - 1;
        tc.kind = TripCount::Kind::Expr;
        return tc;
    }
    return tc;
}

/** One stream the pass decided to create. */
struct PlannedStream
{
    MemRef ref;
    UnitSide side;
    int fifo = 0;
    int64_t stride = 0;
    // For loads: the single consuming use to rewrite.
    rtl::Block *useBlock = nullptr;
    size_t useIndex = 0;
};

ExprPtr
fifoReg(UnitSide side, int fifo, bool flt)
{
    WS_ASSERT((side == UnitSide::Flt) == flt, "FIFO side/type mismatch");
    return rtl::makeReg(flt ? rtl::RegFile::Flt : rtl::RegFile::Int, fifo,
                        flt ? DataType::F64 : DataType::I64);
}

/** Materialize a LinForm value (base + offset) at the preheader end. */
ExprPtr
materializeBase(rtl::Function &fn, rtl::Block *pre, const LinForm &base,
                int64_t extra)
{
    switch (base.baseKind) {
      case LinForm::Base::Sym: {
        ExprPtr t = fn.newVReg(DataType::I64);
        cfg::appendToPreheader(
            pre, rtl::makeAssign(t,
                                 rtl::makeSym(base.sym, base.offset + extra),
                                 "stream base address"));
        return t;
      }
      case LinForm::Base::Reg: {
        if (base.offset + extra == 0)
            return base.baseReg;
        ExprPtr t = fn.newVReg(DataType::I64);
        cfg::appendToPreheader(
            pre, rtl::makeAssign(t,
                                 rtl::makeBin(Op::Add, base.baseReg,
                                              rtl::makeConst(base.offset +
                                                             extra)),
                                 "stream base address"));
        return t;
      }
      default: {
        ExprPtr t = fn.newVReg(DataType::I64);
        cfg::appendToPreheader(
            pre, rtl::makeAssign(t, rtl::makeConst(base.offset + extra),
                                 "stream base address"));
        return t;
      }
    }
}

/**
 * Stream @p loop if it qualifies; true when it changed the code. Edits
 * stay in the loop sweep's footprint: the loop, its preheader and its
 * exit targets.
 */
bool
streamLoop(rtl::Function &fn, cfg::Loop &loop,
           const cfg::DominatorTree &dt, const cfg::DefUseTable &du,
           const rtl::MachineTraits &traits,
           int minTripCount, StreamingReport &report,
           obs::RemarkCollector &remarks, bool injectCountBug,
           bool injectPopBug)
{
    obs::LoopRemarkSite site(remarks, "streaming", fn.name(),
                             loop.header->label(), cfg::loopPos(loop));

    // Loops containing calls cannot stream: the callee's own loads and
    // stores share the data FIFOs.
    for (rtl::Block *b : loop.blocks)
        for (const Inst &inst : b->insts)
            if (inst.kind == InstKind::Call ||
                    inst.kind == InstKind::StreamIn ||
                    inst.kind == InstKind::StreamOut) {
                if (inst.kind == InstKind::Call)
                    site.add(site.missed("contains-call", inst.pos)
                                 .arg("callee", inst.target));
                return false;
            }

    opt::IndVarAnalysis ivs(fn, loop, dt, du, traits);
    PartitionSet parts = opt::buildPartitions(loop, ivs);

    TripCount tc = deriveTripCount(loop, ivs);

    // Step 1: a compile-time trip count of <= 3 is not worth streaming.
    if (tc.kind == TripCount::Kind::Expr && tc.iv &&
            tc.bound.baseKind == LinForm::Base::None) {
        // The IV's initial value: the unique out-of-loop definition of
        // the IV register, when constant. The loop holds one def of
        // the IV, its increment, so the function must hold two.
        cfg::Site init = du.otherDef(
            RegKey{tc.iv->reg->regFile(), tc.iv->reg->regIndex()},
            {tc.iv->defBlock, tc.iv->defIndex});
        const Inst *initDef =
            init.block ? &init.block->insts[init.index] : nullptr;
        if (initDef && initDef->kind == InstKind::Assign &&
                initDef->src->isConst() &&
                !rtl::isFloatType(initDef->src->type())) {
            tc.kind = TripCount::Kind::Const;
            tc.constVal = tc.sign * (tc.bound.offset -
                                     initDef->src->ival()) +
                          tc.addend;
        }
    }
    if (tc.kind == TripCount::Kind::Const && tc.constVal < minTripCount) {
        site.add(site.missed("trip-count-too-small")
                     .arg("trip_count", tc.constVal)
                     .arg("min_trip_count", minTripCount));
        return false;
    }

    bool singleExit = loop.exiting.size() == 1 && tc.latch &&
                      loop.exiting[0] == tc.latch;
    bool finite = tc.kind != TripCount::Kind::Unknown && singleExit;

    // Collect exit target blocks (for StreamStop placement).
    std::vector<rtl::Block *> exitTargets;
    for (rtl::Block *b : loop.exiting)
        for (rtl::Block *s : b->succs)
            if (!loop.contains(s) &&
                    std::find(exitTargets.begin(), exitTargets.end(), s) ==
                        exitTargets.end()) {
                exitTargets.push_back(s);
            }

    // ---- Step 2: pick streamable references ----
    if (parts.unknownWriteExists()) {
        site.add(site.missed("unknown-memory-write"));
        return false;
    }

    std::vector<PlannedStream> candidates;
    for (Partition &p : parts.parts) {
        if (!p.safe)
            continue;
        // Step 2a: no remaining memory recurrences (flow-dependent
        // read/write pairs) in the partition. Also reject overlapping
        // write/write pairs: two output streams would race on the
        // shared cells, with the final value decided by SCU timing.
        bool recurrenceLeft = false;
        const MemRef *recWrite = nullptr;
        for (const MemRef &w : p.refs) {
            if (!w.isWrite || w.cee == 0)
                continue;
            int64_t stride = w.cee * (w.iv ? w.iv->step : 0);
            if (stride == 0)
                continue;
            for (const MemRef &r : p.refs) {
                if (&r == &w)
                    continue;
                int64_t delta = w.roffset - r.roffset;
                if (!r.isWrite) {
                    if (delta == 0 ||
                            (delta % stride == 0 && delta / stride > 0)) {
                        recurrenceLeft = true;
                        recWrite = &w;
                    }
                } else if (delta % stride == 0) {
                    recurrenceLeft = true; // write-after-write overlap
                    recWrite = &w;
                }
            }
        }
        if (recurrenceLeft) {
            site.add(site.missed("memory-recurrence-remains", recWrite->pos())
                         .arg("partition", p.key.str()));
            continue;
        }
        // Writes cannot stream if an unanalyzed read might observe the
        // buffered values.
        for (const MemRef &ref : p.refs) {
            if (!ref.analyzable || !ref.iv || ref.cee == 0) {
                site.add(site.missed("address-not-induction", ref.pos())
                             .arg("partition", p.key.str()));
                continue;
            }
            if (ref.isWrite && parts.unknownReadExists()) {
                site.add(site.missed("unknown-memory-read", ref.pos())
                             .arg("partition", p.key.str()));
                continue;
            }
            // Step 2b/2c: stride and every-iteration execution.
            int64_t stride = ref.cee * ref.iv->step;
            if (stride == 0) {
                site.add(site.missed("zero-stride", ref.pos())
                             .arg("partition", p.key.str()));
                continue;
            }
            if (!cfg::executesEveryIteration(loop, dt, ref.block)) {
                site.add(site.missed("not-every-iteration", ref.pos())
                             .arg("partition", p.key.str())
                             .arg("stride", stride));
                continue;
            }
            // Step 2d: executed loop_count times. With the bottom-test
            // shape every reference dominating the latch runs exactly
            // loop_count times; anything else is skipped.
            PlannedStream ps;
            ps.ref = ref;
            ps.side = rtl::isFloatType(ref.type) ? UnitSide::Flt
                                                 : UnitSide::Int;
            ps.stride = stride;
            const Inst &inst = ref.block->insts[ref.index];
            if (!ref.isWrite) {
                // Load: its destination must be virtual with a single
                // use executed once per iteration.
                if (!rtl::isVirtualFile(inst.dst->regFile())) {
                    site.add(site.missed("load-register-not-virtual",
                                         ref.pos()));
                    continue;
                }
                cfg::Site use = du.uniqueUse(
                    RegKey{inst.dst->regFile(), inst.dst->regIndex()});
                rtl::Block *ub = use.block;
                size_t ui = use.index;
                if (!ub) {
                    site.add(site.missed("load-multiple-uses", ref.pos()));
                    continue;
                }
                if (!loop.contains(ub)) {
                    site.add(site.missed("use-outside-loop", ref.pos()));
                    continue;
                }
                if (!cfg::executesEveryIteration(loop, dt, ub)) {
                    site.add(site.missed("not-every-iteration", ref.pos())
                                 .arg("what", "use"));
                    continue;
                }
                // The use must not sit between other dequeues in a way
                // we cannot order; with one FIFO per stream this is
                // automatically consistent.
                ps.useBlock = ub;
                ps.useIndex = ui;
            } else {
                // Store: its value must be a register (enqueue source).
                if (!inst.src->isReg()) {
                    site.add(site.missed("store-value-not-register",
                                         ref.pos()));
                    continue;
                }
            }
            candidates.push_back(std::move(ps));
        }
    }
    if (candidates.empty()) {
        site.add(site.missed("no-streamable-references"));
        return false;
    }

    // ---- Step 2e: FIFO allocation ----
    // Scalar (non-streamed) loads and stores keep FIFO 0 of their side.
    auto isCandidate = [&](const rtl::Block *b, size_t idx) {
        for (const PlannedStream &ps : candidates)
            if (ps.ref.block == b && ps.ref.index == idx)
                return true;
        return false;
    };
    bool scalarLoad[2] = {false, false};
    bool scalarStore[2] = {false, false};
    for (rtl::Block *b : loop.blocks) {
        for (size_t i = 0; i < b->insts.size(); ++i) {
            const Inst &inst = b->insts[i];
            if (inst.kind == InstKind::Load && !isCandidate(b, i)) {
                scalarLoad[rtl::isFloatType(inst.memType) ? 1 : 0] = true;
            }
            if (inst.kind == InstKind::Store && !isCandidate(b, i)) {
                scalarStore[rtl::isFloatType(inst.memType) ? 1 : 0] = true;
            }
        }
    }

    std::vector<PlannedStream> chosen;
    int nextIn[2], limitIn[2], nextOut[2], limitOut[2];
    for (int s = 0; s < 2; ++s) {
        nextIn[s] = scalarLoad[s] ? 1 : 0;
        limitIn[s] = 2;
        nextOut[s] = scalarStore[s] ? 1 : 0;
        limitOut[s] = 2;
    }
    bool droppedLoad[2] = {false, false};
    bool droppedStore[2] = {false, false};
    auto noFifo = [&](const PlannedStream &ps) {
        site.add(site.missed("no-fifo-available", ps.ref.pos())
                     .arg("side", ps.side == UnitSide::Flt ? "float" : "int")
                     .arg("direction", ps.ref.isWrite ? "out" : "in")
                     .arg("stride", ps.stride));
    };
    for (PlannedStream &ps : candidates) {
        int s = ps.side == UnitSide::Flt ? 1 : 0;
        if (!ps.ref.isWrite) {
            if (nextIn[s] >= limitIn[s]) {
                droppedLoad[s] = true;
                noFifo(ps);
                continue;
            }
            ps.fifo = nextIn[s]++;
        } else {
            if (nextOut[s] >= limitOut[s]) {
                droppedStore[s] = true;
                noFifo(ps);
                continue;
            }
            ps.fifo = nextOut[s]++;
        }
        chosen.push_back(ps);
    }
    // A dropped reference stays a scalar load/store and therefore needs
    // FIFO 0 of its side; if a stream already claimed it, give up on
    // the ones that stole it (conservative: drop streams on fifo 0 of
    // that side and class).
    for (int s = 0; s < 2; ++s) {
        auto evict = [&](bool writes) {
            for (auto it = chosen.begin(); it != chosen.end();) {
                if (it->ref.isWrite == writes && it->fifo == 0 &&
                        (it->side == UnitSide::Flt) == (s == 1)) {
                    noFifo(*it);
                    it = chosen.erase(it);
                } else {
                    ++it;
                }
            }
        };
        if (droppedLoad[s] && !scalarLoad[s])
            evict(false);
        if (droppedStore[s] && !scalarStore[s])
            evict(true);
    }
    if (chosen.empty())
        return false;

    // Past this point the rewrite always completes: record the applied
    // per-stream remarks now, while MemRef block/index pairs are still
    // valid (the rewrite below erases streamed loads).
    for (const PlannedStream &ps : chosen) {
        obs::Remark r = site.applied("streamed", ps.ref.pos());
        r.arg("side", ps.side == UnitSide::Flt ? "float" : "int")
            .arg("fifo", ps.fifo)
            .arg("stride", ps.stride)
            .arg("direction", ps.ref.isWrite ? "out" : "in");
        if (tc.kind == TripCount::Kind::Const)
            r.arg("trip_count", tc.constVal);
        site.add(std::move(r));
    }

    // ---- Steps f/g: preheader code ----
    rtl::Block *pre = cfg::ensurePreheader(fn, loop);

    ExprPtr countReg;
    if (finite) {
        // count := sign * (bound - iv) + addend.
        ExprPtr boundVal = materializeBase(fn, pre, tc.bound, 0);
        ExprPtr t = fn.newVReg(DataType::I64);
        ExprPtr diff =
            tc.sign > 0
                ? rtl::makeBin(Op::Sub, boundVal, tc.iv->reg)
                : rtl::makeBin(Op::Sub, tc.iv->reg, boundVal);
        if (tc.addend)
            diff = rtl::makeBin(Op::Add, diff, rtl::makeConst(tc.addend));
        cfg::appendToPreheader(
            pre, rtl::makeAssign(t, diff, "number of items to stream"));
        countReg = t;
    }

    // Sort: stream-ins before stream-outs (paper Figure 7 order).
    std::stable_sort(chosen.begin(), chosen.end(),
                     [](const PlannedStream &a, const PlannedStream &b) {
                         return !a.ref.isWrite && b.ref.isWrite;
                     });

    for (const PlannedStream &ps : chosen) {
        // Base address of the first element: cee*iv0 + dee. The IV
        // still holds its initial value in the preheader, so
        // materialize base+roffset and add the scaled IV when the
        // initial value is not statically zero.
        ExprPtr base = materializeBase(fn, pre, ps.ref.dee, 0);
        // Add cee*iv0.
        {
            ExprPtr scaled = opt::scaleIV(fn, pre, ps.ref.iv->reg,
                                          ps.ref.cee, "scale initial index");
            ExprPtr t3 = fn.newVReg(DataType::I64);
            cfg::appendToPreheader(
                pre, rtl::makeAssign(t3, rtl::makeBin(Op::Add, scaled, base),
                                     "first element address"));
            base = t3;

            // Hidden fault injection (--inject-deadlock-bug): give
            // every input stream except the loop-steering one
            // (chosen.front(), whose count feeds the JNI mirror) one
            // element too few. The loop still runs the full trip
            // count, so the consumer's final dequeue waits on a FIFO
            // no producer will ever fill — the FIFO-imbalance
            // miscompile the watchdog self-test must detect.
            ExprPtr cnt = countReg;
            if (injectCountBug && finite && !ps.ref.isWrite &&
                    &ps != &chosen.front()) {
                ExprPtr t4 = fn.newVReg(DataType::I64);
                cfg::appendToPreheader(
                    pre, rtl::makeAssign(t4,
                                         rtl::makeBin(Op::Sub, countReg,
                                                      rtl::makeConst(1)),
                                         "injected stream under-count"));
                cnt = t4;
            }
            Inst stream =
                ps.ref.isWrite
                    ? rtl::makeStreamOut(ps.side, ps.fifo, base, cnt,
                                         ps.stride, ps.ref.type,
                                         "stream out")
                    : rtl::makeStreamIn(ps.side, ps.fifo, base, cnt,
                                        ps.stride, ps.ref.type,
                                        "stream in");
            if (!finite)
                stream.count = nullptr;
            // Stream setup lives in the preheader but belongs to the
            // loop: carry the reference's provenance and loop id so
            // per-loop attribution charges it to the right loop.
            stream.pos = ps.ref.pos();
            stream.loopId = site.loopId();
            cfg::appendToPreheader(pre, std::move(stream));
        }
    }

    // ---- Step h: rewrite loads and stores ----
    // Group rewrites per block, descending index, so erases stay valid.
    std::vector<const PlannedStream *> order;
    for (const PlannedStream &ps : chosen)
        order.push_back(&ps);
    // Order blocks by label, not by pointer: heap addresses vary
    // with the process's allocation history, and the rewrite order
    // names fresh registers — pointer order made two compiles of the
    // same source in one process produce differently-numbered (if
    // semantically identical) code, breaking batch-vs-solo
    // bit-identity.
    std::sort(order.begin(), order.end(),
              [](const PlannedStream *a, const PlannedStream *b) {
                  if (a->ref.block != b->ref.block)
                      return a->ref.block->label() <
                             b->ref.block->label();
                  return a->ref.index > b->ref.index;
              });
    for (const PlannedStream *ps : order) {
        Inst &inst = ps->ref.block->insts[ps->ref.index];
        bool flt = ps->side == UnitSide::Flt;
        if (!ps->ref.isWrite) {
            WS_ASSERT(inst.kind == InstKind::Load, "stale stream index");
            ExprPtr dst = inst.dst;
            // Re-locate the single use now (earlier rewrites may have
            // shifted the indexes captured during planning), replace it
            // with the FIFO register, and delete the load.
            ExprPtr f = fifoReg(ps->side, ps->fifo, flt);
            // Verifier self-test: one non-steering input stream's use
            // reads the zero register instead, so its dequeue silently
            // disappears — the producer still enqueues `count`
            // elements nobody pops. The static FIFO-balance linter
            // must flag this at compile time (fifo-pop-imbalance).
            if (injectPopBug && ps != &chosen.front()) {
                f = rtl::makeReg(flt ? rtl::RegFile::Flt
                                     : rtl::RegFile::Int,
                                 traits.zeroReg,
                                 flt ? DataType::F64 : DataType::I64);
                injectPopBug = false; // one stream is enough
            }
            // The one use is still in the block planning found it in.
            bool replaced = false;
            for (Inst &use : ps->useBlock->insts) {
                if (&use == &inst)
                    continue;
                auto replace = [&](ExprPtr &field) {
                    if (field && rtl::usesReg(field, dst->regFile(),
                                              dst->regIndex())) {
                        field = rtl::substReg(field, dst->regFile(),
                                              dst->regIndex(), f);
                        replaced = true;
                    }
                };
                replace(use.src);
                replace(use.addr);
                replace(use.count);
            }
            WS_ASSERT(replaced, "streamed load use vanished");
            ps->ref.block->insts.erase(
                ps->ref.block->insts.begin() +
                static_cast<ptrdiff_t>(ps->ref.index));
            ++report.streamsIn;
        } else {
            WS_ASSERT(inst.kind == InstKind::Store, "stale stream index");
            inst = rtl::makeAssign(fifoReg(ps->side, ps->fifo, flt),
                                   inst.src, "enqueue stream value");
            ++report.streamsOut;
        }
        if (!finite)
            ++report.infiniteStreams;
    }

    // ---- Step i: loop test replacement or stream stops ----
    if (finite) {
        // Replace compare+branch in the latch with jump-on-stream.
        const PlannedStream &probe = chosen.front();
        Inst js = rtl::makeJumpStream(probe.side, probe.fifo,
                                      loop.header->label(),
                                      "jump if stream count not zero");
        rtl::Block *latch = tc.latch;
        // Recompute positions: the latch shrank if loads were deleted.
        size_t jmpIdx = latch->insts.size() - 1;
        WS_ASSERT(latch->insts[jmpIdx].kind == InstKind::CondJump,
                  "latch terminator changed");
        size_t cmpIdx = jmpIdx;
        for (size_t i = jmpIdx; i-- > 0;) {
            const Inst &inst = latch->insts[i];
            if (inst.kind == InstKind::Assign &&
                    inst.dst->regFile() == rtl::RegFile::CC) {
                cmpIdx = i;
                break;
            }
        }
        WS_ASSERT(cmpIdx < jmpIdx, "loop compare not found");
        latch->insts[jmpIdx] = std::move(js);
        latch->insts.erase(latch->insts.begin() +
                           static_cast<ptrdiff_t>(cmpIdx));
        ++report.loopTestsReplaced;

        // ---- Step j: delete the induction variable increment if the
        // IV is dead.
        const BasicIV *iv = tc.iv;
        int loopUses = 0;
        for (rtl::Block *b : loop.blocks)
            for (size_t i = 0; i < b->insts.size(); ++i)
                rtl::forEachUseReg(b->insts[i], [&](const rtl::Expr &u) {
                    loopUses += u.isReg(iv->reg->regFile(),
                                        iv->reg->regIndex());
                });
        // The increment itself uses the IV once. Only the paths from
        // the exits up to the IV's next definition are walked.
        if (loopUses == 1) {
            RegKey key{iv->reg->regFile(), iv->reg->regIndex()};
            bool liveOut = cfg::liveOnEntry(fn, exitTargets, key, traits);
#ifndef NDEBUG
            cfg::Liveness lv(fn, traits);
            WS_ASSERT(liveOut == std::any_of(exitTargets.begin(),
                                             exitTargets.end(),
                                             [&](const rtl::Block *ex) {
                                                 return lv.liveIn(ex, key);
                                             }),
                      "exit liveness walk disagrees with Liveness");
#endif
            if (!liveOut) {
                for (size_t i = 0; i < iv->defBlock->insts.size(); ++i) {
                    const Inst &inst = iv->defBlock->insts[i];
                    if (inst.kind == InstKind::Assign && inst.dst &&
                            inst.dst->isReg(iv->reg->regFile(),
                                            iv->reg->regIndex())) {
                        iv->defBlock->insts.erase(
                            iv->defBlock->insts.begin() +
                            static_cast<ptrdiff_t>(i));
                        ++report.inductionVarsDeleted;
                        break;
                    }
                }
            }
        }
    } else {
        // Infinite streams: stop them at every loop exit.
        for (rtl::Block *ex : exitTargets) {
            std::vector<Inst> stops;
            for (const PlannedStream &ps : chosen) {
                Inst stop = rtl::makeStreamStop(
                    ps.side, ps.fifo, "stop stream at loop exit");
                // `when` carries the direction: true = input stream.
                stop.when = !ps.ref.isWrite;
                stops.push_back(std::move(stop));
            }
            ex->insts.insert(ex->insts.begin(), stops.begin(),
                             stops.end());
        }
    }

    ++report.loopsStreamed;
    obs::Remark r = site.applied("loop-streamed");
    int nin = 0, nout = 0;
    for (const PlannedStream &ps : chosen)
        (ps.ref.isWrite ? nout : nin)++;
    r.arg("streams_in", nin).arg("streams_out", nout);
    if (tc.kind == TripCount::Kind::Const)
        r.arg("trip_count", tc.constVal);
    r.arg("finite", finite ? "true" : "false");
    site.add(std::move(r));
    return true;
}

} // anonymous namespace

StreamingReport
runStreaming(rtl::Function &fn, const rtl::MachineTraits &traits,
             obs::RemarkCollector &remarks, int minTripCount,
             bool injectStreamCountBug, bool injectVerifierBug)
{
    StreamingReport report;
    if (!traits.hasStreams)
        return report;

    // Each loop is streamed at most once.
    cfg::forEachLoop(fn, traits, true, [&](cfg::Loop &loop,
                                           const cfg::DominatorTree &dt,
                                           const cfg::DefUseTable &du) {
        ++report.loopsExamined;
        return streamLoop(fn, loop, dt, du, traits, minTripCount, report,
                          remarks, injectStreamCountBug, injectVerifierBug)
                   ? cfg::LoopVisit::Changed
                   : cfg::LoopVisit::Unchanged;
    });
    fn.recomputeCfg();
    return report;
}

} // namespace wmstream::streaming
