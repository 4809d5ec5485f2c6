#include "recurrence/recurrence.h"

#include <algorithm>

#include "support/diag.h"

namespace wmstream::recurrence {

using opt::BasicIV;
using opt::LinForm;
using rtl::DataType;
using rtl::ExprPtr;
using rtl::Inst;
using rtl::InstKind;
using rtl::Op;

namespace {

/** Materialize `cee*iv + base + disp` at the end of @p pre. */
ExprPtr
materializeAddress(rtl::Function &fn, rtl::Block *pre, const BasicIV &iv,
                   int64_t cee, const LinForm &base, int64_t disp)
{
    size_t at = pre->insts.size();
    if (pre->terminator())
        --at;
    auto insert = [&](Inst inst) {
        pre->insts.insert(pre->insts.begin() + static_cast<ptrdiff_t>(at++),
                          std::move(inst));
    };

    ExprPtr scaled;
    if (cee == 0) {
        scaled = nullptr;
    } else if (cee == 1) {
        scaled = iv.reg;
    } else {
        int sh = -1;
        for (int k = 1; k < 32; ++k)
            if (cee == (int64_t{1} << k))
                sh = k;
        ExprPtr t = fn.newVReg(DataType::I64);
        insert(rtl::makeAssign(
            t, sh > 0 ? rtl::makeBin(Op::Shl, iv.reg, rtl::makeConst(sh))
                      : rtl::makeBin(Op::Mul, iv.reg, rtl::makeConst(cee)),
            "recurrence initial address"));
        scaled = t;
    }

    ExprPtr baseVal;
    switch (base.baseKind) {
      case LinForm::Base::Sym: {
        ExprPtr t = fn.newVReg(DataType::I64);
        insert(rtl::makeAssign(t, rtl::makeSym(base.sym),
                               "address of recurrence array"));
        baseVal = t;
        break;
      }
      case LinForm::Base::Reg:
        baseVal = base.baseReg;
        break;
      default:
        baseVal = nullptr;
        break;
    }

    ExprPtr sum = scaled;
    if (baseVal) {
        if (sum) {
            ExprPtr t = fn.newVReg(DataType::I64);
            insert(rtl::makeAssign(t, rtl::makeBin(Op::Add, sum, baseVal)));
            sum = t;
        } else {
            sum = baseVal;
        }
    }
    if (!sum)
        return rtl::makeConst(disp);
    if (disp == 0)
        return sum;
    ExprPtr t = fn.newVReg(DataType::I64);
    insert(rtl::makeAssign(t, rtl::makeBin(Op::Add, sum,
                                           rtl::makeConst(disp))));
    return t;
}

/** Count textual uses of a register in the whole function. */
int
countUses(rtl::Function &fn, const ExprPtr &reg)
{
    int n = 0;
    for (auto &bp : fn.blocks())
        for (auto &inst : bp->insts)
            for (const auto &u : rtl::instUses(inst))
                if (u->isReg(reg->regFile(), reg->regIndex()))
                    ++n;
    return n;
}

struct PairInfo
{
    MemRef *read;
    int distance; ///< iterations between write and read
};

/** Source position of a memory reference's instruction. */
SourcePos
refPos(const MemRef &ref)
{
    return ref.block->insts[ref.index].pos;
}

/** Remark factory bound to one pass/function/loop. */
struct RemarkSite
{
    obs::RemarkCollector *remarks = nullptr;
    std::string function;
    int loopId = -1;
    SourcePos loopLoc;

    obs::Remark make(obs::RemarkVerdict v, const char *reason,
                     SourcePos at = {}) const
    {
        obs::Remark r;
        r.pass = "recurrence";
        r.function = function;
        r.loopId = loopId;
        r.loc = at.valid() ? at : loopLoc;
        r.verdict = v;
        r.reason = reason;
        return r;
    }
    void missed(const char *reason, SourcePos at = {},
                const std::string &partition = "") const
    {
        if (!remarks)
            return;
        obs::Remark r = make(obs::RemarkVerdict::Missed, reason, at);
        if (!partition.empty())
            r.arg("partition", partition);
        remarks->add(std::move(r));
    }
};

bool
optimizePartition(rtl::Function &fn, cfg::Loop &loop,
                  const cfg::DominatorTree &dt, Partition &part,
                  int maxDegree, bool skipDistanceCheck,
                  RecurrenceReport &report, const RemarkSite &site)
{
    if (!part.hasWrite() || !part.hasRead())
        return false; // nothing to carry: not a recurrence candidate
    if (!part.safe) {
        site.missed("partition-not-safe", {}, part.key);
        return false;
    }

    // Single write, one or more reads; all same element type and a
    // moving (cee != 0) access pattern.
    MemRef *write = nullptr;
    std::vector<MemRef *> reads;
    for (MemRef &r : part.refs) {
        if (r.isWrite) {
            if (write) {
                site.missed("multiple-writes", refPos(r), part.key);
                return false; // multiple writes: skip
            }
            write = &r;
        } else {
            reads.push_back(&r);
        }
    }
    if (!write || !write->iv || write->cee == 0) {
        site.missed("address-not-induction",
                    write ? refPos(*write) : SourcePos{}, part.key);
        return false;
    }

    int64_t stride = write->cee * write->iv->step;
    WS_ASSERT(stride != 0, "zero stride with nonzero cee");

    // Step 4a: identify read/write pairs and the recurrence degree.
    std::vector<PairInfo> pairs;
    for (MemRef *r : reads) {
        if (r->type != write->type) {
            site.missed("mixed-element-types", refPos(*r), part.key);
            return false;
        }
        int64_t delta = write->roffset - r->roffset;
        if (delta == 0 && !skipDistanceCheck) {
            site.missed("same-cell-read-write", refPos(*r), part.key);
            return false; // same-cell read+write: ordering-sensitive
        }
        if (delta % stride != 0)
            continue; // interleaved, never the same cell
        int64_t dist = delta / stride;
        if (dist < 0) {
            site.missed("read-ahead-of-write", refPos(*r), part.key);
            return false; // read runs ahead of the write: a true
                          // dependence we must not break
        }
        pairs.push_back({r, static_cast<int>(dist)});
    }
    if (pairs.empty()) {
        site.missed("no-recurrence-found", refPos(*write), part.key);
        return false;
    }

    int degree = 0;
    for (const PairInfo &p : pairs)
        degree = std::max(degree, p.distance);
    if (degree > maxDegree) {
        if (site.remarks)
            site.remarks->add(
                site.make(obs::RemarkVerdict::Missed,
                          "degree-exceeds-registers", refPos(*write))
                    .arg("partition", part.key)
                    .arg("degree", degree)
                    .arg("max_degree", maxDegree));
        return false; // not enough registers (paper Step 2a remark)
    }

    // Every participating reference must execute on every iteration.
    auto everyIteration = [&](const MemRef &r) {
        for (rtl::Block *latch : loop.latches)
            if (!dt.dominates(r.block, latch))
                return false;
        return true;
    };
    if (!everyIteration(*write)) {
        site.missed("not-every-iteration", refPos(*write), part.key);
        return false;
    }
    for (const PairInfo &p : pairs)
        if (!everyIteration(*p.read)) {
            site.missed("not-every-iteration", refPos(*p.read), part.key);
            return false;
        }

    // The loaded registers must be replaceable: virtual, and defined
    // only by the load.
    for (const PairInfo &p : pairs) {
        const Inst &load = p.read->block->insts[p.read->index];
        if (!rtl::isVirtualFile(load.dst->regFile())) {
            site.missed("load-register-not-virtual", refPos(*p.read),
                        part.key);
            return false;
        }
    }

    // All checks passed; the rewrite below always completes. Record the
    // applied remark now, while block/index pairs are still valid.
    if (site.remarks)
        site.remarks->add(
            site.make(obs::RemarkVerdict::Applied, "recurrence-optimized",
                      refPos(*write))
                .arg("partition", part.key)
                .arg("degree", degree)
                .arg("stride", stride)
                .arg("loads_replaced",
                     static_cast<int64_t>(pairs.size())));

    // ---- rewrite ----
    SourcePos writePos = refPos(*write);
    bool flt = rtl::isFloatType(write->type);
    DataType dt2 = flt ? DataType::F64 : DataType::I64;
    std::vector<ExprPtr> chain; // chain[k] holds the value of k iterations ago
    for (int k = 0; k <= degree; ++k)
        chain.push_back(fn.newVReg(dt2));

    // Step 4b (write side): retain the stored value in chain[0].
    // Preferred form (the paper's): retarget the instruction computing
    // the stored value so it writes chain[0] directly. Fall back to an
    // extra copy when the producer cannot be retargeted.
    {
        Inst &store = write->block->insts[write->index];
        bool retargeted = false;
        if (store.src->isReg() &&
                rtl::isVirtualFile(store.src->regFile())) {
            // Find a unique producing Assign in the same block before
            // the store, with no other use or redefinition between.
            int uses = 0;
            for (auto &bp2 : fn.blocks())
                for (auto &inst2 : bp2->insts)
                    for (const auto &u : rtl::instUses(inst2))
                        if (u->isReg(store.src->regFile(),
                                     store.src->regIndex()))
                            ++uses;
            int defs = 0;
            size_t defIdx = 0;
            rtl::Block *defBlock = nullptr;
            for (auto &bp2 : fn.blocks())
                for (size_t k = 0; k < bp2->insts.size(); ++k)
                    if (auto d = rtl::instDef(bp2->insts[k]))
                        if (d->isReg(store.src->regFile(),
                                     store.src->regIndex())) {
                            ++defs;
                            defBlock = bp2.get();
                            defIdx = k;
                        }
            if (uses == 1 && defs == 1 && defBlock == write->block &&
                    defIdx < write->index) {
                Inst &producer = write->block->insts[defIdx];
                if (producer.kind == InstKind::Assign &&
                        producer.dst->isReg(store.src->regFile(),
                                            store.src->regIndex())) {
                    producer.dst = chain[0];
                    producer.comment = "compute into recurrence register";
                    store.src = chain[0];
                    retargeted = true;
                }
            }
        }
        if (!retargeted) {
            Inst keep = rtl::makeAssign(chain[0], store.src,
                                        "retain recurrence value");
            store.src = chain[0];
            store.comment = "store via recurrence register";
            write->block->insts.insert(
                write->block->insts.begin() +
                    static_cast<ptrdiff_t>(write->index),
                std::move(keep));
            // Indexes at or after the write shift by one.
            for (PairInfo &p : pairs)
                if (p.read->block == write->block &&
                        p.read->index >= write->index) {
                    ++p.read->index;
                }
            ++write->index;
        }
    }

    // Step 4b (read side): replace the loads with chain registers.
    // Process per block in descending index order so erases stay valid.
    // Label order, not pointer order: pointer values depend on the
    // process's allocation history, which must not influence the
    // emitted code (see the matching comment in streaming.cc).
    std::sort(pairs.begin(), pairs.end(),
              [](const PairInfo &a, const PairInfo &b) {
                  if (a.read->block != b.read->block)
                      return a.read->block->label() <
                             b.read->block->label();
                  return a.read->index > b.read->index;
              });
    for (PairInfo &p : pairs) {
        Inst &load = p.read->block->insts[p.read->index];
        WS_ASSERT(load.kind == InstKind::Load, "stale read index");
        Inst copy = rtl::makeAssign(load.dst, chain[p.distance],
                                    "recurrence value from register");
        copy.id = load.id;
        load = std::move(copy);
        ++report.loadsDeleted;
    }

    // Step 4c: shift the chain at the top of the loop, oldest first.
    {
        std::vector<Inst> shifts;
        for (int k = degree; k >= 1; --k)
            shifts.push_back(rtl::makeAssign(chain[k], chain[k - 1],
                                             "shift recurrence chain"));
        rtl::Block *header = loop.header;
        header->insts.insert(header->insts.begin(), shifts.begin(),
                             shifts.end());
        // Adjust recorded indexes in the header.
        for (MemRef &r : part.refs)
            if (r.block == header)
                r.index += static_cast<size_t>(degree);
    }

    // Step 4d: prime the chain in the preheader.
    {
        rtl::Block *pre = cfg::ensurePreheader(fn, loop);
        for (int k = 1; k <= degree; ++k) {
            // Address of the value written k iterations before the
            // first one: write address at iv0 minus k strides.
            ExprPtr addr = materializeAddress(
                fn, pre, *write->iv, write->cee, write->dee,
                write->roffset - static_cast<int64_t>(k) * stride);
            size_t at = pre->insts.size();
            if (pre->terminator())
                --at;
            Inst prime = rtl::makeLoad(chain[k - 1], addr, write->type,
                                       "prime recurrence chain");
            // Priming lives in the preheader but belongs to the loop
            // for per-loop attribution.
            prime.pos = writePos;
            prime.loopId = site.loopId;
            pre->insts.insert(
                pre->insts.begin() + static_cast<ptrdiff_t>(at),
                std::move(prime));
        }

        // Record the chain shape for the IR verifier, which checks it
        // right after this pass (cleanup may dissolve it later).
        RecurrenceChain meta;
        meta.function = fn.name();
        meta.header = loop.header->label();
        meta.preheader = pre->label();
        meta.flt = flt;
        meta.degree = degree;
        for (const ExprPtr &c : chain)
            meta.chainRegs.push_back(c->regIndex());
        report.chains.push_back(std::move(meta));
    }

    // The reads are now register references: drop them from the
    // partition (paper shows X reduced to the write alone).
    part.refs.erase(std::remove_if(part.refs.begin(), part.refs.end(),
                                   [](const MemRef &r) {
                                       return !r.isWrite;
                                   }),
                    part.refs.end());

    report.maxDegree = std::max(report.maxDegree, degree);
    ++report.recurrencesOptimized;
    (void)countUses;
    return true;
}

} // anonymous namespace

/** Best source position for a loop: first stamped inst in the header,
 *  else first stamped inst anywhere in the loop. */
static SourcePos
loopPos(const cfg::Loop &loop)
{
    for (const Inst &inst : loop.header->insts)
        if (inst.pos.valid())
            return inst.pos;
    for (rtl::Block *b : loop.blocks)
        for (const Inst &inst : b->insts)
            if (inst.pos.valid())
                return inst.pos;
    return {};
}

RecurrenceReport
runRecurrenceOpt(rtl::Function &fn, const rtl::MachineTraits &traits,
                 int maxDegree, bool skipDistanceCheck,
                 obs::RemarkCollector *remarks)
{
    RecurrenceReport report;
    // Rewrite one partition per visit: the rewrite invalidates the
    // partition set, so the loop is examined again until none applies.
    cfg::forEachLoop(fn, true, [&](cfg::Loop &loop,
                                   const cfg::DominatorTree &dt) {
        ++report.loopsExamined;

        RemarkSite site;
        site.remarks = remarks;
        site.function = fn.name();
        site.loopLoc = loopPos(loop);
        if (remarks) {
            site.loopId = remarks->loopId(fn.name(), loop.header->label(),
                                          site.loopLoc);
            if (const obs::LoopRecord *lr = remarks->findLoop(site.loopId);
                    lr && lr->loc.valid())
                site.loopLoc = lr->loc;
        }

        opt::IndVarAnalysis ivs(fn, loop, dt, traits);
        PartitionSet parts = buildPartitions(fn, loop, dt, ivs, traits);
        report.partitionDumps.push_back(parts.str());

        // The paper's aliasing caveat: an unknown write may alias any
        // partition, so no rewrite is safe.
        if (parts.unknownWriteExists()) {
            site.missed("unknown-memory-write");
            return false;
        }
        for (Partition &p : parts.parts) {
            // An unknown read may observe any write; rewriting a
            // write-carrying partition would change what it sees.
            if (parts.unknownReadExists() && p.hasWrite()) {
                site.missed("unknown-memory-read", {}, p.key);
                continue;
            }
            if (optimizePartition(fn, loop, dt, p, maxDegree,
                                  skipDistanceCheck, report, site))
                return true;
        }
        return false;
    });
    fn.recomputeCfg();
    fn.renumber();
    return report;
}

} // namespace wmstream::recurrence
