#include "recurrence/recurrence.h"

#include <algorithm>

#include "opt/partitions.h"
#include "support/diag.h"

namespace wmstream::recurrence {

using opt::MemRef;
using opt::Partition;
using opt::PartitionSet;
using rtl::DataType;
using rtl::ExprPtr;
using rtl::Inst;
using rtl::InstKind;

namespace {

struct PairInfo
{
    MemRef *read;
    int distance; ///< iterations between write and read
};

bool
optimizePartition(rtl::Function &fn, cfg::Loop &loop,
                  const cfg::DominatorTree &dt, const cfg::DefUseTable &du,
                  Partition &part, bool skipDistanceCheck,
                  RecurrenceReport &report,
                  const obs::LoopRemarkSite &site)
{
    auto missed = [&](const char *reason, SourcePos at = {}) {
        site.add(site.missed(reason, at).arg("partition", part.key.str()));
    };
    if (!part.hasWrite() || !part.hasRead())
        return false; // nothing to carry: not a recurrence candidate
    if (!part.safe) {
        missed("partition-not-safe");
        return false;
    }

    // Single write, one or more reads; all same element type and a
    // moving (cee != 0) access pattern.
    MemRef *write = nullptr;
    std::vector<MemRef *> reads;
    for (MemRef &r : part.refs) {
        if (r.isWrite) {
            if (write) {
                missed("multiple-writes", r.pos());
                return false; // multiple writes: skip
            }
            write = &r;
        } else {
            reads.push_back(&r);
        }
    }
    if (!write || !write->iv || write->cee == 0) {
        missed("address-not-induction", write ? write->pos() : SourcePos{});
        return false;
    }

    int64_t stride = write->cee * write->iv->step;
    WS_ASSERT(stride != 0, "zero stride with nonzero cee");

    // Step 4a: identify read/write pairs and the recurrence degree.
    std::vector<PairInfo> pairs;
    for (MemRef *r : reads) {
        if (r->type != write->type) {
            missed("mixed-element-types", r->pos());
            return false;
        }
        int64_t delta = write->roffset - r->roffset;
        if (delta == 0 && !skipDistanceCheck) {
            missed("same-cell-read-write", r->pos());
            return false; // same-cell read+write: ordering-sensitive
        }
        if (delta % stride != 0)
            continue; // interleaved, never the same cell
        int64_t dist = delta / stride;
        if (dist < 0) {
            missed("read-ahead-of-write", r->pos());
            return false; // read runs ahead of the write: a true
                          // dependence we must not break
        }
        pairs.push_back({r, static_cast<int>(dist)});
    }
    if (pairs.empty()) {
        missed("no-recurrence-found", write->pos());
        return false;
    }

    int degree = 0;
    for (const PairInfo &p : pairs)
        degree = std::max(degree, p.distance);
    if (degree > kMaxDegree) {
        site.add(site.missed("degree-exceeds-registers", write->pos())
                     .arg("partition", part.key.str())
                     .arg("degree", degree)
                     .arg("max_degree", kMaxDegree));
        return false; // not enough registers (paper Step 2a remark)
    }

    // Every participating reference must execute on every iteration.
    if (!cfg::executesEveryIteration(loop, dt, write->block)) {
        missed("not-every-iteration", write->pos());
        return false;
    }
    for (const PairInfo &p : pairs)
        if (!cfg::executesEveryIteration(loop, dt, p.read->block)) {
            missed("not-every-iteration", p.read->pos());
            return false;
        }

    // The loaded registers must be replaceable: virtual, and defined
    // only by the load.
    for (const PairInfo &p : pairs) {
        const Inst &load = p.read->block->insts[p.read->index];
        if (!rtl::isVirtualFile(load.dst->regFile())) {
            missed("load-register-not-virtual", p.read->pos());
            return false;
        }
    }

    // All checks passed; the rewrite below always completes. Record the
    // applied remark now, while block/index pairs are still valid.
    site.add(site.applied("recurrence-optimized", write->pos())
                 .arg("partition", part.key.str())
                 .arg("degree", degree)
                 .arg("stride", stride)
                 .arg("loads_replaced", static_cast<int64_t>(pairs.size())));

    // ---- rewrite ----
    SourcePos writePos = write->pos();
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
            cfg::RegKey value{store.src->regFile(), store.src->regIndex()};
            cfg::Site def = du.uniqueDef(value);
            if (du.useCount(value) == 1 && def.block == write->block &&
                    def.index < write->index) {
                Inst &producer = write->block->insts[def.index];
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
        load = rtl::makeAssign(load.dst, chain[p.distance],
                               "recurrence value from register");
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
            ExprPtr addr = opt::materializeAddress(
                fn, pre, write->iv->reg, write->cee, write->dee,
                write->roffset - static_cast<int64_t>(k) * stride,
                {"recurrence initial address", "address of recurrence array",
                 ""});
            Inst prime = rtl::makeLoad(chain[k - 1], addr, write->type,
                                       "prime recurrence chain");
            // Priming lives in the preheader but belongs to the loop
            // for per-loop attribution.
            prime.pos = writePos;
            prime.loopId = site.loopId();
            cfg::appendToPreheader(pre, std::move(prime));
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
    return true;
}

} // anonymous namespace

RecurrenceReport
runRecurrenceOpt(rtl::Function &fn, const rtl::MachineTraits &traits,
                 obs::RemarkCollector &remarks, bool skipDistanceCheck)
{
    RecurrenceReport report;
    // Rewrite one partition per visit: the rewrite invalidates the
    // partition set, so the loop is examined again until none applies.
    cfg::forEachLoop(fn, traits, true, [&](cfg::Loop &loop,
                                           const cfg::DominatorTree &dt,
                                           const cfg::DefUseTable &du) {
        ++report.loopsExamined;
        obs::LoopRemarkSite site(remarks, "recurrence", fn.name(),
                                 loop.header->label(), cfg::loopPos(loop));

        opt::IndVarAnalysis ivs(fn, loop, dt, du, traits);
        PartitionSet parts = opt::buildPartitions(loop, ivs);
        report.partitionDumps.push_back(parts.str(fn));

        // The paper's aliasing caveat: an unknown write may alias any
        // partition, so no rewrite is safe.
        if (parts.unknownWriteExists()) {
            site.add(site.missed("unknown-memory-write"));
            return cfg::LoopVisit::Unchanged;
        }
        for (Partition &p : parts.parts) {
            // An unknown read may observe any write; rewriting a
            // write-carrying partition would change what it sees.
            if (parts.unknownReadExists() && p.hasWrite()) {
                site.add(site.missed("unknown-memory-read")
                             .arg("partition", p.key.str()));
                continue;
            }
            if (optimizePartition(fn, loop, dt, du, p, skipDistanceCheck,
                                  report, site))
                return cfg::LoopVisit::Again;
        }
        return cfg::LoopVisit::Unchanged;
    });
    fn.recomputeCfg();
    return report;
}

} // namespace wmstream::recurrence
