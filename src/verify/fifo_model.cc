#include "verify/fifo_model.h"

#include <algorithm>
#include <set>
#include <utility>

#include "support/str.h"

namespace wmstream::verify::fifomodel {

using rtl::Expr;
using rtl::ExprPtr;
using rtl::Inst;
using rtl::InstKind;
using rtl::RegFile;
using rtl::UnitSide;
using rtl::isDataFifoReg;

std::string
queueName(int q)
{
    if (q >= kDataQueues)
        return strFormat("cc%d", q - kDataQueues);
    bool output = q >= 4;
    int side = (q / 2) % 2;
    int fifo = q % 2;
    return strFormat("%s:%c%d", output ? "out" : "in",
                     side ? 'f' : 'r', fifo);
}

const char *
fieldName(Field f)
{
    switch (f) {
      case Field::Src: return "source";
      case Field::Addr: return "address";
      case Field::Extra: return "implicit-use";
    }
    return "?";
}

namespace {

void
collectInputPops(const ExprPtr &e, Field field, InstQueueOps &ops)
{
    if (!e)
        return;
    rtl::forEachNode(e, [&](const Expr &n) {
        if (isDataFifoReg(n))
            ops.pops.push_back(
                {dataQ(false, fifoSide(n), n.regIndex()), field});
    });
}

} // anonymous namespace

InstQueueOps
queueOps(const Inst &inst)
{
    InstQueueOps ops;
    switch (inst.kind) {
      case InstKind::StreamIn:
      case InstKind::StreamOut:
      case InstKind::StreamStop:
      case InstKind::JumpStream:
      case InstKind::VecOp:
        return ops; // SCU/VEU side: checked per streamed region
      case InstKind::Load:
        collectInputPops(inst.addr, Field::Addr, ops);
        if (inst.dst && inst.dst->isReg() && isDataFifoReg(*inst.dst))
            ops.pushes.push_back(
                dataQ(false, fifoSide(*inst.dst),
                      inst.dst->regIndex()));
        break;
      case InstKind::Assign:
        collectInputPops(inst.src, Field::Src, ops);
        if (inst.dst && inst.dst->isReg()) {
            if (isDataFifoReg(*inst.dst))
                ops.pushes.push_back(
                    dataQ(true, fifoSide(*inst.dst),
                          inst.dst->regIndex()));
            else if (inst.dst->regFile() == RegFile::CC)
                ops.pushes.push_back(
                    ccQ(inst.dst->regIndex() == 1 ? 1 : 0));
        }
        break;
      case InstKind::Store:
        collectInputPops(inst.addr, Field::Addr, ops);
        if (inst.src && inst.src->isReg() && isDataFifoReg(*inst.src))
            ops.pops.push_back(
                {dataQ(true, fifoSide(*inst.src),
                       inst.src->regIndex()),
                 Field::Src});
        else
            collectInputPops(inst.src, Field::Src, ops);
        break;
      case InstKind::CondJump:
        ops.pops.push_back(
            {ccQ(inst.side == UnitSide::Int ? 0 : 1), Field::Src});
        break;
      default:
        break;
    }
    for (const ExprPtr &e : inst.extraUses)
        collectInputPops(e, Field::Extra, ops);
    return ops;
}

ExprPtr
resolveAt(const rtl::Block *b, size_t idx, ExprPtr e,
          const rtl::MachineTraits &traits)
{
    if (!e)
        return e;
    std::set<std::pair<int, int>> frozen;
    for (size_t i = idx; i-- > 0;) {
        const Inst &inst = b->insts[i];
        if (inst.kind == InstKind::Call)
            break; // clobbers caller-saved state: stop resolving
        ExprPtr d = rtl::instDef(inst);
        if (!d || !d->isReg())
            continue;
        RegFile f = d->regFile();
        int ri = d->regIndex();
        if ((f == RegFile::Int || f == RegFile::Flt) &&
                ri == traits.zeroReg)
            continue; // writes to the zero register are discarded
        if (!rtl::usesReg(e, f, ri))
            continue;
        auto key = std::make_pair(static_cast<int>(f), ri);
        if (frozen.count(key))
            continue;
        // A FIFO-read register in the source makes the assignment a
        // dequeue: two resolutions substituting through *different*
        // pops would wrongly look equal, so freeze the destination
        // instead (keeping its name visible to countsAgree's
        // redefinition scan).
        bool popsFifo = false;
        rtl::forEachNode(inst.src, [&](const Expr &n) {
            if (isDataFifoReg(n))
                popsFifo = true;
        });
        if (inst.kind == InstKind::Assign && inst.src &&
                !rtl::containsMem(inst.src) && !popsFifo)
            e = rtl::substReg(e, f, ri, inst.src);
        else
            frozen.insert(key); // load, pop, or non-copyable def
    }
    return e;
}

std::vector<StreamRegion>
collectStreamRegions(cfg::LoopInfo &li)
{
    std::vector<StreamRegion> regions;
    for (cfg::Loop &loop : li.loops()) {
        StreamRegion r;
        r.loop = &loop;
        r.header = loop.header->label();
        for (rtl::Block *p : loop.header->preds) {
            if (loop.contains(p))
                continue;
            for (size_t i = 0; i < p->insts.size(); ++i) {
                const Inst &inst = p->insts[i];
                if (inst.kind == InstKind::StreamIn ||
                        inst.kind == InstKind::StreamOut)
                    r.streams.push_back({&inst, p, i});
            }
        }
        for (rtl::Block *l : loop.latches)
            if (const Inst *t = l->terminator())
                if (t->kind == InstKind::JumpStream)
                    r.jumpStreamLatch = true;
        if (r.streams.empty() && !r.jumpStreamLatch)
            continue;

        // Claim queues; two streams on one queue cannot coexist.
        for (size_t i = 0; i < r.streams.size(); ++i)
            if (!r.slotOf.emplace(r.streams[i].q(), i).second)
                r.claimConflicts.push_back(i);

        size_t counted = 0;
        for (const StreamSite &s : r.streams)
            if (s.inst->count)
                ++counted;
        r.finite = !r.streams.empty() && counted == r.streams.size();
        regions.push_back(std::move(r));
    }
    return regions;
}

bool
countsAgree(const StreamSite &a, const rtl::Block *bBlock,
            size_t bIndex, const ExprPtr &bCount,
            const rtl::MachineTraits &traits, std::string *why)
{
    if (!a.inst->count || !bCount)
        return rtl::exprEqual(a.inst->count, bCount);
    // No syntactic fast path: two sites naming the same register can
    // still carry different values when a redefinition sits between
    // them (the --inject-deadlock-bug miscompile is exactly that
    // shape), so agreement is only ever decided on resolved counts.
    ExprPtr ra = resolveAt(a.block, a.index, a.inst->count, traits);
    ExprPtr rb = resolveAt(bBlock, bIndex, bCount, traits);
    if (!rtl::exprEqual(ra, rb)) {
        *why = strFormat("counts resolve to %s vs %s",
                         ra ? ra->str().c_str() : "<null>",
                         rb ? rb->str().c_str() : "<null>");
        return false;
    }
    // Equal resolved expressions prove equal values only when every
    // register still mentioned means the same value at both sites.
    // Defs that resolveAt substitutes through are already folded into
    // both resolved counts (a surviving name then denotes block-entry
    // state on both sides), but a def it *freezes* — a load, a FIFO
    // pop, a memory-dependent source — keeps the register's name
    // while changing its value, so such a def between same-block
    // sites (or a caller-state-clobbering call) breaks the proof.
    // Sites in different preheader blocks keep the best-effort answer.
    if (a.block == bBlock && a.index != bIndex) {
        size_t lo = std::min(a.index, bIndex);
        size_t hi = std::max(a.index, bIndex);
        for (size_t i = lo + 1; i < hi; ++i) {
            const Inst &inst = a.block->insts[i];
            if (inst.kind == InstKind::Call) {
                *why = "a call between the two stream sites clobbers "
                       "the count";
                return false;
            }
            ExprPtr d = rtl::instDef(inst);
            if (!d || !d->isReg())
                continue;
            RegFile f = d->regFile();
            int ri = d->regIndex();
            if ((f == RegFile::Int || f == RegFile::Flt) &&
                    ri == traits.zeroReg)
                continue;
            bool popsFifo = false;
            rtl::forEachNode(inst.src, [&](const Expr &n) {
                if (isDataFifoReg(n))
                    popsFifo = true;
            });
            if (inst.kind == InstKind::Assign && inst.src &&
                    !rtl::containsMem(inst.src) && !popsFifo)
                continue; // substituted through: folded into ra and rb
            if (rtl::usesReg(rb, f, ri)) {
                *why = strFormat(
                    "the count (%s) is redefined between the two "
                    "stream sites",
                    rb->str().c_str());
                return false;
            }
        }
    }
    return true;
}

} // namespace wmstream::verify::fifomodel
