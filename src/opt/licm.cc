#include <unordered_set>

#include "cfg/liveness.h"
#include "cfg/loops.h"
#include "opt/passes.h"

namespace wmstream::opt {

using cfg::RegKey;
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
        if (rtl::isDataFifoReg(n))
            bad = true; // FIFO reads are not movable
    });
    return bad;
}

/**
 * Syms reachable from @p e, chasing single-def register copies.
 * Sets @p unknown when an opaque register (load result, parameter)
 * feeds the address.
 */
void
collectBaseSyms(const cfg::DefUseTable &du, const ExprPtr &e,
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
        // Unique definition?
        cfg::Site def = du.uniqueDef({e->regFile(), e->regIndex()});
        if (!def.block ||
                def.block->insts[def.index].kind != InstKind::Assign) {
            *unknown = true;
            return;
        }
        collectBaseSyms(du, def.block->insts[def.index].src, syms, unknown,
                        depth + 1);
        return;
      }
      case Expr::Kind::Bin:
        collectBaseSyms(du, e->lhs(), syms, unknown, depth + 1);
        collectBaseSyms(du, e->rhs(), syms, unknown, depth + 1);
        return;
      case Expr::Kind::Un:
      case Expr::Kind::Mem:
        collectBaseSyms(du, e->lhs(), syms, unknown, depth + 1);
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
    std::vector<Inst> moved;
    for (auto &[b, i] : order)
        moved.push_back(b->insts[i]);
    // Delete from the loop blocks (per block, descending index). No
    // branch moves, so the CFG edges stay as they are.
    auto del = order;
    std::sort(del.begin(), del.end(), [](const auto &x, const auto &y) {
        if (x.first != y.first)
            return x.first->id() < y.first->id();
        return x.second > y.second;
    });
    for (auto &[b, i] : del)
        b->insts.erase(b->insts.begin() + static_cast<ptrdiff_t>(i));
    for (Inst &inst : moved)
        cfg::appendToPreheader(pre, std::move(inst));
    return static_cast<int>(moved.size());
}

/**
 * Hoist loop-invariant loads of read-only or unaliased globals out of
 * @p loop. Safe because an unaliased global can only change through a
 * direct symbol-addressed store, and we verify none targets it here.
 */
int
hoistLoads(rtl::Function &fn, cfg::Loop &loop, const cfg::DefUseTable &du,
           const rtl::MachineTraits &traits, const rtl::Program &prog)
{
    // Registers defined in the loop (for invariance of addresses).
    cfg::RegKeyTable<uint8_t> loopDefs;
    bool hasCall = false;
    for (rtl::Block *b : loop.blocks)
        for (auto &inst : b->insts) {
            if (inst.kind == InstKind::Call)
                hasCall = true;
            cfg::forEachDef(inst, traits,
                            [&](const RegKey &k) { loopDefs.at(k) = 1; });
        }

    // Symbols possibly stored to inside the loop.
    std::unordered_set<std::string> storedSyms;
    bool storeUnknown = false;
    for (rtl::Block *b : loop.blocks)
        for (auto &inst : b->insts)
            if (inst.kind == InstKind::Store ||
                    inst.kind == InstKind::StreamOut) {
                collectBaseSyms(du, inst.addr, &storedSyms,
                                &storeUnknown);
            }

    std::vector<std::pair<rtl::Block *, size_t>> order;
    for (rtl::Block *b : loop.blocks) {
        for (size_t i = 0; i < b->insts.size(); ++i) {
            Inst &inst = b->insts[i];
            if (inst.kind != InstKind::Load)
                continue;
            if (!rtl::isVirtualFile(inst.dst->regFile()))
                continue;
            if (du.defCount({inst.dst->regFile(), inst.dst->regIndex()}) !=
                    1) {
                continue;
            }
            // Address must be invariant.
            bool invariant = true;
            rtl::forEachReg(inst.addr, [&](const Expr &r) {
                if (loopDefs.get(RegKey{r.regFile(), r.regIndex()}))
                    invariant = false;
            });
            if (!invariant)
                continue;
            // The loaded global must be read-only, or unaliased with no
            // store to it and no call in the loop.
            std::unordered_set<std::string> syms;
            bool unknown = false;
            collectBaseSyms(du, inst.addr, &syms, &unknown);
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
hoistLoop(rtl::Function &fn, cfg::Loop &loop, const cfg::DefUseTable &du,
          const rtl::MachineTraits &traits)
{
    // Registers defined anywhere in the loop.
    cfg::RegKeyTable<uint8_t> loopDefs;
    for (rtl::Block *b : loop.blocks)
        for (auto &inst : b->insts)
            cfg::forEachDef(inst, traits,
                            [&](const RegKey &k) { loopDefs.at(k) = 1; });

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
                // Defined once in the whole function.
                if (du.defCount({inst.dst->regFile(),
                                 inst.dst->regIndex()}) != 1) {
                    continue;
                }
                if (hasTrapOrFifo(inst.src))
                    continue;
                bool invariant = true;
                rtl::forEachReg(inst.src, [&](const Expr &r) {
                    RegKey k{r.regFile(), r.regIndex()};
                    if (!loopDefs.get(k))
                        return; // defined outside: invariant
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
                });
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
    int total = 0;
    // A hoist out of a loop may make more of it invariant, so revisit
    // the loop until nothing moves.
    cfg::forEachLoop(fn, traits, false, [&](cfg::Loop &loop,
                                            const cfg::DominatorTree &,
                                            const cfg::DefUseTable &du) {
        int moved = hoistLoop(fn, loop, du, traits);
        if (!moved && prog)
            moved = hoistLoads(fn, loop, du, traits, *prog);
        total += moved;
        return moved ? cfg::LoopVisit::Again : cfg::LoopVisit::Unchanged;
    });
    return total;
}

} // namespace wmstream::opt
