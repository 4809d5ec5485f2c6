#include <unordered_map>

#include "cfg/liveness.h"
#include "dataflow/cfg_index.h"
#include "dataflow/pool.h"
#include "dataflow/solver.h"
#include "opt/legal.h"
#include "opt/passes.h"

namespace wmstream::opt {

using cfg::RegKey;
using cfg::RegKeyHash;
using rtl::Expr;
using rtl::ExprPtr;
using rtl::Inst;
using rtl::InstKind;
using rtl::RegFile;

namespace {

bool
isFifoReg(const ExprPtr &e)
{
    return e->isReg() &&
           (e->regFile() == RegFile::Int || e->regFile() == RegFile::Flt) &&
           (e->regIndex() == 0 || e->regIndex() == 1);
}

/** A forward map from register to an equivalent leaf. Seeded per
 *  block from the reaching-copies solve, then updated in-place while
 *  walking the block. */
class CopyTable
{
  public:
    void clear() { map_.clear(); }

    void
    invalidate(const RegKey &k)
    {
        map_.erase(k);
        for (auto it = map_.begin(); it != map_.end();) {
            const ExprPtr &v = it->second;
            if (v->isReg() && v->regFile() == k.file &&
                    v->regIndex() == k.index) {
                it = map_.erase(it);
            } else {
                ++it;
            }
        }
    }

    void
    record(const ExprPtr &dst, const ExprPtr &src)
    {
        map_[RegKey{dst->regFile(), dst->regIndex()}] = src;
    }

    ExprPtr
    apply(const ExprPtr &e) const
    {
        switch (e->kind()) {
          case Expr::Kind::Reg: {
            auto it = map_.find(RegKey{e->regFile(), e->regIndex()});
            return it != map_.end() ? it->second : e;
          }
          case Expr::Kind::Bin: {
            ExprPtr l = apply(e->lhs());
            ExprPtr r = apply(e->rhs());
            if (l == e->lhs() && r == e->rhs())
                return e;
            return rtl::makeBin(e->op(), l, r);
          }
          case Expr::Kind::Un: {
            ExprPtr x = apply(e->lhs());
            return x == e->lhs() ? e : rtl::makeUn(e->op(), x, e->type());
          }
          case Expr::Kind::Mem: {
            ExprPtr a = apply(e->addr());
            return a == e->addr() ? e : rtl::makeMem(a, e->type());
          }
          default:
            return e;
        }
    }

  private:
    std::unordered_map<RegKey, ExprPtr, RegKeyHash> map_;
};

/** True when an Assign qualifies as a propagatable copy: non-CC,
 *  non-FIFO destination; leaf source that is a same-file plain
 *  register or a non-float constant. */
bool
isCopyInst(const Inst &inst)
{
    if (inst.kind != InstKind::Assign ||
            inst.dst->regFile() == RegFile::CC || isFifoReg(inst.dst))
        return false;
    const ExprPtr &s = inst.src;
    bool leaf = (s->isReg() && !isFifoReg(s) &&
                 s->regFile() != RegFile::CC) ||
                (s->isConst() && !rtl::isFloatType(s->type()));
    if (!leaf)
        return false;
    // Only same-file copies propagate (no int<->float).
    return !s->isReg() ||
           rtl::isFloatType(s->type()) ==
               rtl::isFloatType(inst.dst->type());
}

/** One copy site in the universe of the reaching-copies solve. */
struct CopyRecord
{
    RegKey dst;
    ExprPtr src;   // leaf expression at analysis time
    bool srcIsReg = false;
    RegKey srcKey{RegFile::Int, -1};
};

/**
 * Whole-function must-reaching-copies: forward, intersect join, one
 * bit per copy site. A record is killed by any redefinition of its
 * destination or its source register (calls clobber per traits).
 */
class ReachingCopies
{
  public:
    ReachingCopies(rtl::Function &fn, const rtl::MachineTraits &traits)
        : cfg_(fn)
    {
        // Collect the universe in program order.
        for (size_t bi = 0; bi < cfg_.size(); ++bi)
            for (const Inst &inst : cfg_.block(bi)->insts)
                if (isCopyInst(inst)) {
                    CopyRecord r;
                    r.dst = RegKey{inst.dst->regFile(),
                                   inst.dst->regIndex()};
                    r.src = inst.src;
                    if (inst.src->isReg()) {
                        r.srcIsReg = true;
                        r.srcKey = RegKey{inst.src->regFile(),
                                          inst.src->regIndex()};
                    }
                    records_.push_back(r);
                }
        solver_ = std::make_unique<dataflow::BitsetSolver>(
            pool_, cfg_, records_.size(),
            dataflow::Direction::Forward,
            dataflow::Join::Intersect);
        if (records_.empty())
            return;

        // Key -> records mentioning it (as dst or src).
        std::unordered_map<RegKey, std::vector<size_t>, RegKeyHash>
            byKey;
        for (size_t i = 0; i < records_.size(); ++i) {
            byKey[records_[i].dst].push_back(i);
            if (records_[i].srcIsReg)
                byKey[records_[i].srcKey].push_back(i);
        }

        // gen/kill by forward simulation of each block.
        size_t nextRecord = 0;
        for (size_t bi = 0; bi < cfg_.size(); ++bi) {
            auto *gen = solver_->gen(bi);
            auto *kill = solver_->kill(bi);
            for (const Inst &inst : cfg_.block(bi)->insts) {
                cfg::forEachDef(inst, traits, [&](const RegKey &k) {
                    if (auto it = byKey.find(k); it != byKey.end())
                        for (size_t r : it->second) {
                            dataflow::bitsetReset(gen, r);
                            dataflow::bitsetSet(kill, r);
                        }
                });
                if (isCopyInst(inst)) {
                    dataflow::bitsetSet(gen, nextRecord);
                    dataflow::bitsetReset(kill, nextRecord);
                    ++nextRecord;
                }
            }
        }
        solver_->solve();
    }

    /** Seed @p table with the copies that must reach @p bi 's entry. */
    void seed(size_t bi, CopyTable &table) const
    {
        table.clear();
        if (records_.empty())
            return;
        dataflow::bitsetForEach(
            solver_->words(), solver_->in(bi), [&](size_t r) {
                // Intersection semantics guarantee at most one
                // reaching record per destination key.
                table.record(recordDstExpr(r), records_[r].src);
            });
    }

    const dataflow::CfgIndex &cfg() const { return cfg_; }

  private:
    ExprPtr recordDstExpr(size_t r) const
    {
        const CopyRecord &rec = records_[r];
        // Reconstruct a Reg expr for the table key; type taken from
        // the source leaf (same file by construction).
        return rtl::makeReg(rec.dst.file, rec.dst.index,
                            rec.src->type());
    }

    dataflow::BitsetPool pool_;
    dataflow::CfgIndex cfg_;
    std::unique_ptr<dataflow::BitsetSolver> solver_;
    std::vector<CopyRecord> records_;
};

} // anonymous namespace

int
runCopyPropagate(rtl::Function &fn, const rtl::MachineTraits &traits)
{
    int changes = 0;
    CopyTable table;
    ReachingCopies reaching(fn, traits);
    const dataflow::CfgIndex &cfg = reaching.cfg();

    for (size_t bi = 0; bi < cfg.size(); ++bi) {
        rtl::Block *bp = cfg.block(bi);
        reaching.seed(bi, table);
        for (Inst &inst : bp->insts) {
            // Substitute into operand positions when still legal.
            switch (inst.kind) {
              case InstKind::Assign: {
                ExprPtr ns = table.apply(inst.src);
                bool legal = inst.dst->regFile() == RegFile::CC
                                 ? fitsCompareSrc(ns, traits)
                                 : fitsAssignSrc(ns, traits);
                if (ns != inst.src && legal) {
                    inst.src = ns;
                    ++changes;
                }
                break;
              }
              case InstKind::Load: {
                ExprPtr na = table.apply(inst.addr);
                if (na != inst.addr && fitsAddr(na, traits)) {
                    inst.addr = na;
                    ++changes;
                }
                break;
              }
              case InstKind::Store: {
                ExprPtr na = table.apply(inst.addr);
                if (na != inst.addr && fitsAddr(na, traits)) {
                    inst.addr = na;
                    ++changes;
                }
                ExprPtr nsrc = table.apply(inst.src);
                if (nsrc != inst.src && nsrc->isReg()) {
                    inst.src = nsrc;
                    ++changes;
                }
                break;
              }
              case InstKind::StreamIn:
              case InstKind::StreamOut: {
                ExprPtr na = table.apply(inst.addr);
                if (na != inst.addr && na->isReg()) {
                    inst.addr = na;
                    ++changes;
                }
                if (inst.count) { // null count = unbounded stream
                    ExprPtr nc = table.apply(inst.count);
                    if (nc != inst.count && nc->isReg()) {
                        inst.count = nc;
                        ++changes;
                    }
                }
                break;
              }
              default:
                break;
            }

            // Update the table with this instruction's effect.
            cfg::forEachDef(inst, traits,
                            [&](const RegKey &k) { table.invalidate(k); });
            if (isCopyInst(inst))
                table.record(inst.dst, inst.src);
        }
    }
    return changes;
}

} // namespace wmstream::opt
