#include <unordered_map>
#include <vector>

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

/**
 * The expressions or memory cells a block has computed so far, each
 * with the virtual register that holds it. Keys are in the form the
 * walk left them, already rewritten through the copy table.
 */
class AvailTable
{
  public:
    void clear() { entries_.clear(); }

    void
    invalidate(const RegKey &k)
    {
        for (auto it = entries_.begin(); it != entries_.end();) {
            bool kill = rtl::usesReg(it->expr, k.file, k.index) ||
                        it->reg->isReg(k.file, k.index);
            it = kill ? entries_.erase(it) : ++it;
        }
    }

    void
    record(ExprPtr expr, ExprPtr reg)
    {
        entries_.push_back({std::move(expr), std::move(reg)});
    }

    /** The register holding @p e, or null. */
    const ExprPtr *
    find(const ExprPtr &e) const
    {
        for (const Entry &entry : entries_)
            if (rtl::exprEqual(entry.expr, e))
                return &entry.reg;
        return nullptr;
    }

  private:
    struct Entry
    {
        ExprPtr expr;
        ExprPtr reg;
    };
    std::vector<Entry> entries_;
};

/** True when an Assign qualifies as a propagatable copy: non-CC,
 *  non-FIFO destination; leaf source that is a same-file plain
 *  register or a non-float constant. */
bool
isCopyInst(const Inst &inst)
{
    if (inst.kind != InstKind::Assign ||
            inst.dst->regFile() == RegFile::CC ||
            rtl::isDataFifoReg(*inst.dst))
        return false;
    const ExprPtr &s = inst.src;
    bool leaf = (s->isReg() && !rtl::isDataFifoReg(*s) &&
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


/**
 * Rewrite @p inst 's operands through @p copies wherever the result is
 * still a legal target instruction.
 * @return number of operands rewritten.
 */
int
rewriteOperands(Inst &inst, const CopyTable &copies,
                const rtl::MachineTraits &traits)
{
    int changes = 0;
    auto substitute = [&](ExprPtr &field, auto &&legal) {
        ExprPtr n = copies.apply(field);
        if (n != field && legal(n)) {
            field = std::move(n);
            ++changes;
        }
    };
    auto isReg = [](const ExprPtr &e) { return e->isReg(); };
    auto isAddr = [&](const ExprPtr &e) { return fitsAddr(e, traits); };
    switch (inst.kind) {
      case InstKind::Assign:
        substitute(inst.src, [&](const ExprPtr &e) {
            return inst.dst->regFile() == RegFile::CC
                       ? fitsCompareSrc(e, traits)
                       : fitsAssignSrc(e, traits);
        });
        break;
      case InstKind::Load:
        substitute(inst.addr, isAddr);
        break;
      case InstKind::Store:
        substitute(inst.addr, isAddr);
        substitute(inst.src, isReg);
        break;
      case InstKind::StreamIn:
      case InstKind::StreamOut:
        substitute(inst.addr, isReg);
        if (inst.count) // null count = unbounded stream
            substitute(inst.count, isReg);
        break;
      default:
        break;
    }
    return changes;
}

/**
 * Replace a computation the block already holds by the register that
 * holds it: an expression hit makes the source that register, a load
 * hit turns the load into a copy (keeping its id and comment).
 * @return 1 on a hit, else 0.
 */
int
reuseAvailable(Inst &inst, const AvailTable &exprs,
               const AvailTable &loads)
{
    if (inst.kind == InstKind::Assign) {
        if (inst.dst->regFile() == RegFile::CC ||
                inst.src->kind() != Expr::Kind::Bin ||
                rtl::readsDataFifo(inst.src))
            return 0;
        const ExprPtr *reg = exprs.find(inst.src);
        if (!reg)
            return 0;
        inst.src = *reg;
        return 1;
    }
    if (inst.kind == InstKind::Load && !rtl::readsDataFifo(inst.addr)) {
        const ExprPtr *reg =
            loads.find(rtl::makeMem(inst.addr, inst.memType));
        if (!reg)
            return 0;
        inst = rtl::makeAssign(inst.dst, *reg, inst.comment);
        return 1;
    }
    return 0;
}

/** Record what @p inst leaves available to the rest of its block. */
void
recordAvailable(const Inst &inst, AvailTable &exprs, AvailTable &loads)
{
    auto holds = [&](const ExprPtr &from) {
        return rtl::isVirtualFile(inst.dst->regFile()) &&
               !rtl::readsDataFifo(from) &&
               !rtl::usesReg(from, inst.dst->regFile(),
                             inst.dst->regIndex());
    };
    switch (inst.kind) {
      case InstKind::Assign:
        if (inst.src->kind() == Expr::Kind::Bin && holds(inst.src))
            exprs.record(inst.src, inst.dst);
        break;
      case InstKind::Load:
        if (holds(inst.addr))
            loads.record(rtl::makeMem(inst.addr, inst.memType), inst.dst);
        break;
      case InstKind::Store:
        // Store-to-load forwarding. Only full 8-byte cells: a narrow
        // store truncates, so the register is not the stored value.
        if (inst.src->isReg() && rtl::dataTypeSize(inst.memType) == 8 &&
                rtl::isVirtualFile(inst.src->regFile()) &&
                !rtl::readsDataFifo(inst.addr))
            loads.record(rtl::makeMem(inst.addr, inst.memType), inst.src);
        break;
      default:
        break;
    }
}

} // anonymous namespace

int
runValuePropagation(rtl::Function &fn, const rtl::MachineTraits &traits)
{
    int changes = 0;
    CopyTable copies;
    AvailTable exprs;
    AvailTable loads; // keys are Mem(addr) cells
    ReachingCopies reaching(fn, traits);
    const dataflow::CfgIndex &cfg = reaching.cfg();

    for (size_t bi = 0; bi < cfg.size(); ++bi) {
        reaching.seed(bi, copies);
        exprs.clear();
        loads.clear();
        for (Inst &inst : cfg.block(bi)->insts) {
            changes += rewriteOperands(inst, copies, traits);
            changes += reuseAvailable(inst, exprs, loads);

            cfg::forEachDef(inst, traits, [&](const RegKey &k) {
                copies.invalidate(k);
                exprs.invalidate(k);
                loads.invalidate(k);
            });
            switch (inst.kind) {
              case InstKind::Store:
              case InstKind::StreamIn:
              case InstKind::StreamOut:
              case InstKind::Call:
                loads.clear(); // conservative: any memory may change
                break;
              default:
                break;
            }

            // A hit above left a copy, so the rest of the block reads
            // through it at once.
            if (isCopyInst(inst))
                copies.record(inst.dst, inst.src);
            recordAvailable(inst, exprs, loads);
        }
    }
    return changes;
}

} // namespace wmstream::opt
