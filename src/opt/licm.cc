#include <unordered_map>
#include <unordered_set>

#include "cfg/liveness.h"
#include "cfg/loops.h"
#include "opt/passes.h"

namespace wmstream::opt {

using cfg::RegKey;
using cfg::RegKeyHash;
using rtl::Expr;
using rtl::ExprPtr;
using rtl::Inst;
using rtl::InstKind;
using rtl::Op;
using rtl::RegFile;

namespace {

bool
hasTrapOrFifo(const ExprPtr &e)
{
    bool bad = false;
    rtl::forEachNode(e, [&](const Expr &n) {
        if (n.kind() == Expr::Kind::Bin &&
                (n.op() == Op::Div || n.op() == Op::Rem)) {
            bad = true; // hoisting may introduce a divide fault
        }
        if (n.kind() == Expr::Kind::Reg &&
                (n.regFile() == RegFile::Int ||
                 n.regFile() == RegFile::Flt) &&
                (n.regIndex() == 0 || n.regIndex() == 1)) {
            bad = true; // FIFO reads are not movable
        }
    });
    return bad;
}

/**
 * Syms reachable from @p e, chasing single-def register copies.
 * Sets @p unknown when an opaque register (load result, parameter)
 * feeds the address.
 */
void
collectBaseSyms(rtl::Function &fn, const ExprPtr &e,
                std::unordered_set<std::string> *syms, bool *unknown,
                int depth = 0)
{
    if (!e || depth > 8) {
        *unknown = true;
        return;
    }
    switch (e->kind()) {
      case Expr::Kind::Sym:
        syms->insert(e->symbol());
        return;
      case Expr::Kind::Const:
        return;
      case Expr::Kind::Reg: {
        if ((e->regFile() == RegFile::Int ||
             e->regFile() == RegFile::Flt) &&
                e->regIndex() >= 30) {
            return; // SP/zero never address globals of interest
        }
        // Unique textual definition?
        const Inst *def = nullptr;
        int count = 0;
        for (auto &bp : fn.blocks())
            for (auto &inst : bp->insts)
                if (auto d = rtl::instDef(inst))
                    if (d->isReg(e->regFile(), e->regIndex())) {
                        ++count;
                        def = &inst;
                    }
        if (count != 1 || def->kind != InstKind::Assign) {
            *unknown = true;
            return;
        }
        collectBaseSyms(fn, def->src, syms, unknown, depth + 1);
        return;
      }
      case Expr::Kind::Bin:
        collectBaseSyms(fn, e->lhs(), syms, unknown, depth + 1);
        collectBaseSyms(fn, e->rhs(), syms, unknown, depth + 1);
        return;
      case Expr::Kind::Un:
      case Expr::Kind::Mem:
        collectBaseSyms(fn, e->lhs(), syms, unknown, depth + 1);
        return;
    }
}

/**
 * Move the instructions at @p order out of @p loop into its preheader,
 * in discovery order (dependencies first) and before any terminator
 * the preheader may have. Returns how many moved.
 */
int
moveToPreheader(rtl::Function &fn, cfg::Loop &loop,
                const std::vector<std::pair<rtl::Block *, size_t>> &order)
{
    if (order.empty())
        return 0;
    rtl::Block *pre = cfg::ensurePreheader(fn, loop);
    size_t at = pre->insts.size();
    if (pre->terminator())
        --at;
    std::vector<Inst> moved;
    for (auto &[b, i] : order)
        moved.push_back(b->insts[i]);
    // Delete from the loop blocks (per block, descending index).
    for (auto &bp : fn.blocks()) {
        rtl::Block *b = bp.get();
        std::vector<size_t> del;
        for (auto &[ob, oi] : order)
            if (ob == b)
                del.push_back(oi);
        std::sort(del.rbegin(), del.rend());
        for (size_t idx : del)
            b->insts.erase(b->insts.begin() + static_cast<ptrdiff_t>(idx));
    }
    pre->insts.insert(pre->insts.begin() + static_cast<ptrdiff_t>(at),
                      moved.begin(), moved.end());
    fn.recomputeCfg();
    return static_cast<int>(moved.size());
}

/**
 * Hoist loop-invariant loads of read-only or unaliased globals out of
 * @p loop. Safe because an unaliased global can only change through a
 * direct symbol-addressed store, and we verify none targets it here.
 */
int
hoistLoads(rtl::Function &fn, cfg::Loop &loop, const rtl::Program &prog)
{
    rtl::MachineTraits traits;
    // Registers defined in the loop (for invariance of addresses).
    std::unordered_set<RegKey, RegKeyHash> loopDefs;
    bool hasCall = false;
    for (rtl::Block *b : loop.blocks)
        for (auto &inst : b->insts) {
            if (inst.kind == InstKind::Call)
                hasCall = true;
            for (const RegKey &k : cfg::instDefKeys(inst, traits))
                loopDefs.insert(k);
        }

    // Symbols possibly stored to inside the loop.
    std::unordered_set<std::string> storedSyms;
    bool storeUnknown = false;
    for (rtl::Block *b : loop.blocks)
        for (auto &inst : b->insts)
            if (inst.kind == InstKind::Store ||
                    inst.kind == InstKind::StreamOut) {
                collectBaseSyms(fn, inst.addr, &storedSyms,
                                &storeUnknown);
            }

    std::unordered_map<RegKey, int, RegKeyHash> defCount;
    for (auto &bp : fn.blocks())
        for (auto &inst : bp->insts)
            for (const RegKey &k : cfg::instDefKeys(inst, traits))
                ++defCount[k];

    std::vector<std::pair<rtl::Block *, size_t>> order;
    for (rtl::Block *b : loop.blocks) {
        for (size_t i = 0; i < b->insts.size(); ++i) {
            Inst &inst = b->insts[i];
            if (inst.kind != InstKind::Load)
                continue;
            if (!rtl::isVirtualFile(inst.dst->regFile()))
                continue;
            RegKey d{inst.dst->regFile(), inst.dst->regIndex()};
            if (defCount[d] != 1)
                continue;
            // Address must be invariant.
            bool invariant = true;
            for (const auto &r : rtl::collectRegs(inst.addr))
                if (loopDefs.count(RegKey{r->regFile(), r->regIndex()}))
                    invariant = false;
            if (!invariant)
                continue;
            // The loaded global must be read-only, or unaliased with no
            // store to it and no call in the loop.
            std::unordered_set<std::string> syms;
            bool unknown = false;
            collectBaseSyms(fn, inst.addr, &syms, &unknown);
            if (unknown || syms.size() != 1)
                continue;
            const std::string &s = *syms.begin();
            auto *g = const_cast<rtl::Program &>(prog).findGlobal(s);
            if (!g)
                continue;
            bool safe = g->readOnly ||
                        (!g->mayBeAliased && !hasCall &&
                         !storedSyms.count(s));
            if (!safe)
                continue;
            order.emplace_back(b, i);
        }
    }
    return moveToPreheader(fn, loop, order);
}

/** Hoist every invariant computation out of @p loop. */
int
hoistLoop(rtl::Function &fn, cfg::Loop &loop)
{
    // Count defs per register (whole function, to prove single-def).
    std::unordered_map<RegKey, int, RegKeyHash> defCount;
    rtl::MachineTraits traits; // clobber sets identical across targets
    for (auto &bp : fn.blocks())
        for (auto &inst : bp->insts)
            for (const RegKey &k : cfg::instDefKeys(inst, traits))
                ++defCount[k];

    // Registers defined anywhere in the loop.
    std::unordered_set<RegKey, RegKeyHash> loopDefs;
    for (rtl::Block *b : loop.blocks)
        for (auto &inst : b->insts)
            for (const RegKey &k : cfg::instDefKeys(inst, traits))
                loopDefs.insert(k);

    // Iteratively collect hoistable instructions.
    std::unordered_set<const Inst *> hoisted;
    std::vector<std::pair<rtl::Block *, size_t>> order;
    bool grew = true;
    while (grew) {
        grew = false;
        for (rtl::Block *b : loop.blocks) {
            for (size_t i = 0; i < b->insts.size(); ++i) {
                Inst &inst = b->insts[i];
                if (hoisted.count(&inst))
                    continue;
                if (inst.kind != InstKind::Assign)
                    continue;
                if (!rtl::isVirtualFile(inst.dst->regFile()))
                    continue;
                RegKey d{inst.dst->regFile(), inst.dst->regIndex()};
                if (defCount[d] != 1)
                    continue;
                if (hasTrapOrFifo(inst.src))
                    continue;
                bool invariant = true;
                for (const auto &r : rtl::collectRegs(inst.src)) {
                    RegKey k{r->regFile(), r->regIndex()};
                    if (!loopDefs.count(k))
                        continue; // defined outside: invariant
                    // Defined in loop: acceptable only if that def is
                    // itself being hoisted.
                    bool viaHoisted = false;
                    for (auto &[hb, hi] : order) {
                        const Inst &h = hb->insts[hi];
                        if (h.dst && h.dst->isReg(k.file, k.index))
                            viaHoisted = true;
                    }
                    if (!viaHoisted)
                        invariant = false;
                }
                if (!invariant)
                    continue;
                hoisted.insert(&inst);
                order.emplace_back(b, i);
                grew = true;
            }
        }
    }
    return moveToPreheader(fn, loop, order);
}

} // anonymous namespace

int
runLoopInvariantCodeMotion(rtl::Function &fn,
                           const rtl::MachineTraits &traits,
                           const rtl::Program *prog)
{
    (void)traits;
    int total = 0;
    // A hoist out of a loop may make more of it invariant, so revisit
    // the loop until nothing moves.
    cfg::forEachLoop(fn, false, [&](cfg::Loop &loop,
                                    const cfg::DominatorTree &) {
        int moved = hoistLoop(fn, loop);
        if (!moved && prog)
            moved = hoistLoads(fn, loop, *prog);
        total += moved;
        return moved != 0;
    });
    return total;
}

} // namespace wmstream::opt
