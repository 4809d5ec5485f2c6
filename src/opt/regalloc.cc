#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "cfg/liveness.h"
#include "opt/passes.h"
#include "support/str.h"

namespace wmstream::opt {

using cfg::RegKey;
using cfg::RegKeyHash;
using rtl::DataType;
using rtl::ExprPtr;
using rtl::Inst;
using rtl::InstKind;
using rtl::RegFile;

namespace {

/** Graph-coloring state for one virtual file (VInt or VFlt). */
struct Allocator
{
    RegFile vfile;
    RegFile pfile;
    // adjacency: vreg index -> set of interfering vreg indexes
    std::unordered_map<int, std::unordered_set<int>> adj;
    // forbidden physical indexes per vreg
    std::unordered_map<int, std::unordered_set<int>> forbidden;
    std::unordered_set<int> nodes;
};

void
addInterference(Allocator &ia, Allocator &fa, const RegKey &def,
                const RegKey &live)
{
    auto classify = [&](const RegKey &k) -> Allocator * {
        if (k.file == RegFile::VInt)
            return &ia;
        if (k.file == RegFile::VFlt)
            return &fa;
        return nullptr;
    };
    Allocator *da = classify(def);
    Allocator *la = classify(live);
    if (da && la && da == la && def.index != live.index) {
        da->adj[def.index].insert(live.index);
        da->adj[live.index].insert(def.index);
        da->nodes.insert(def.index);
        da->nodes.insert(live.index);
    } else if (da && !la && live.file == da->pfile) {
        da->forbidden[def.index].insert(live.index);
        da->nodes.insert(def.index);
    } else if (!da && la && def.file == la->pfile) {
        la->forbidden[live.index].insert(def.index);
        la->nodes.insert(live.index);
    }
}

ExprPtr
substAllRegs(const ExprPtr &e,
             const std::unordered_map<RegKey, int, RegKeyHash> &colors)
{
    if (!e)
        return e;
    switch (e->kind()) {
      case rtl::Expr::Kind::Reg: {
        RegKey k{e->regFile(), e->regIndex()};
        auto it = colors.find(k);
        if (it == colors.end())
            return e;
        RegFile pf = k.file == RegFile::VInt ? RegFile::Int : RegFile::Flt;
        return rtl::makeReg(pf, it->second, e->type());
      }
      case rtl::Expr::Kind::Bin: {
        ExprPtr l = substAllRegs(e->lhs(), colors);
        ExprPtr r = substAllRegs(e->rhs(), colors);
        if (l == e->lhs() && r == e->rhs())
            return e;
        return rtl::makeBinRaw(e->op(), l, r, e->type());
      }
      case rtl::Expr::Kind::Un: {
        ExprPtr x = substAllRegs(e->lhs(), colors);
        return x == e->lhs() ? e
                             : rtl::makeUnRaw(e->op(), x, e->type());
      }
      case rtl::Expr::Kind::Mem: {
        ExprPtr a = substAllRegs(e->addr(), colors);
        return a == e->addr() ? e : rtl::makeMem(a, e->type());
      }
      default:
        return e;
    }
}

/** Spill every use/def of @p victim through a fresh frame slot. */
void
spillRegister(rtl::Function &fn, const RegKey &victim,
              const rtl::MachineTraits &traits)
{
    int64_t off = fn.allocFrameSlot(8, 8);
    bool flt = victim.file == RegFile::VFlt;
    DataType dt = flt ? DataType::F64 : DataType::I64;
    ExprPtr sp = rtl::makeReg(RegFile::Int, traits.spReg, DataType::I64);

    for (auto &bp : fn.blocks()) {
        rtl::Block *b = bp.get();
        for (size_t i = 0; i < b->insts.size(); ++i) {
            bool uses = cfg::readsKey(b->insts[i], victim);
            bool defs = false;
            if (auto d = rtl::instDef(b->insts[i]))
                if (d->isReg(victim.file, victim.index))
                    defs = true;

            if (uses) {
                ExprPtr t = fn.newVReg(dt);
                // Rewrite the use first (references into the vector
                // are invalidated by insertion).
                Inst &inst = b->insts[i];
                auto replace = [&](ExprPtr &field) {
                    if (field)
                        field = rtl::substReg(field, victim.file,
                                              victim.index, t);
                };
                replace(inst.src);
                replace(inst.addr);
                replace(inst.count);
                replace(inst.vecSrc2);
                for (auto &e : inst.extraUses)
                    e = rtl::substReg(e, victim.file, victim.index, t);
                ExprPtr addr = rtl::makeBin(rtl::Op::Add, sp,
                                            rtl::makeConst(off));
                b->insts.insert(b->insts.begin() +
                                static_cast<ptrdiff_t>(i),
                                rtl::makeLoad(t, addr, dt, "reload"));
                ++i; // index of the original instruction again
            }
            if (defs) {
                ExprPtr t = fn.newVReg(dt);
                b->insts[i].dst = t;
                ExprPtr addr = rtl::makeBin(rtl::Op::Add, sp,
                                            rtl::makeConst(off));
                b->insts.insert(b->insts.begin() +
                                static_cast<ptrdiff_t>(i + 1),
                                rtl::makeStore(addr, t, dt, "spill"));
                ++i;
            }
        }
    }
}

} // anonymous namespace

bool
runRegAlloc(rtl::Function &fn, const rtl::MachineTraits &traits)
{
    for (int attempt = 0; attempt < kRegAllocAttemptCap; ++attempt) {
        // ---- build interference ----
        Allocator ia{RegFile::VInt, RegFile::Int, {}, {}, {}};
        Allocator fa{RegFile::VFlt, RegFile::Flt, {}, {}, {}};
        cfg::Liveness live(fn, traits);
        size_t words = live.bitsetWords();
        std::vector<dataflow::BitsetWord> liveSet(words);

        for (auto &bp : fn.blocks()) {
            rtl::Block *b = bp.get();
            dataflow::bitsetCopy(words, liveSet.data(), live.liveOutBits(b));
            for (size_t n = b->insts.size(); n-- > 0;) {
                const Inst &inst = b->insts[n];
                cfg::forEachDef(inst, traits, [&](const RegKey &d) {
                    dataflow::bitsetForEach(words, liveSet.data(),
                                            [&](size_t li) {
                        const RegKey &l = live.key(li);
                        if (!(l == d))
                            addInterference(ia, fa, d, l);
                    });
                    // Make sure every vreg is a node even if it never
                    // interferes.
                    if (d.file == RegFile::VInt)
                        ia.nodes.insert(d.index);
                    if (d.file == RegFile::VFlt)
                        fa.nodes.insert(d.index);
                });
                live.transferBack(inst, liveSet.data());
            }
        }

        // ---- color ----
        std::unordered_map<RegKey, int, RegKeyHash> colors;
        RegKey spillCandidate{RegFile::VInt, -1};
        bool failed = false;

        auto colorFile = [&](Allocator &a, int lastAllocatable) {
            // Highest degree first.
            std::vector<int> order(a.nodes.begin(), a.nodes.end());
            std::sort(order.begin(), order.end(), [&](int x, int y) {
                size_t dx = a.adj[x].size(), dy = a.adj[y].size();
                if (dx != dy)
                    return dx > dy;
                return x < y;
            });
            for (int v : order) {
                std::unordered_set<int> used = a.forbidden[v];
                for (int w : a.adj[v]) {
                    auto it = colors.find(RegKey{a.vfile, w});
                    if (it != colors.end())
                        used.insert(it->second);
                }
                int chosen = -1;
                // Caller-saved first, callee-saved as fallback.
                for (int c = traits.firstAllocatable;
                         c <= lastAllocatable; ++c) {
                    if (!used.count(c)) {
                        chosen = c;
                        break;
                    }
                }
                if (chosen < 0) {
                    failed = true;
                    spillCandidate = RegKey{a.vfile, v};
                    return;
                }
                colors[RegKey{a.vfile, v}] = chosen;
            }
        };

        colorFile(ia, traits.lastAllocatableInt);
        if (!failed)
            colorFile(fa, traits.lastAllocatableFlt);

        if (failed) {
            spillRegister(fn, spillCandidate, traits);
            continue;
        }

        // ---- rewrite ----
        std::unordered_set<int> usedCalleeInt, usedCalleeFlt;
        for (const auto &[k, c] : colors) {
            if (c >= traits.firstCalleeSaved) {
                if (k.file == RegFile::VInt)
                    usedCalleeInt.insert(c);
                else
                    usedCalleeFlt.insert(c);
            }
        }

        for (auto &bp : fn.blocks()) {
            for (Inst &inst : bp->insts) {
                inst.dst = substAllRegs(inst.dst, colors);
                inst.src = substAllRegs(inst.src, colors);
                inst.addr = substAllRegs(inst.addr, colors);
                inst.count = substAllRegs(inst.count, colors);
                inst.vecSrc2 = substAllRegs(inst.vecSrc2, colors);
                for (auto &e : inst.extraUses)
                    e = substAllRegs(e, colors);
            }
        }

        // ---- prologue / epilogue ----
        std::vector<std::pair<RegFile, int>> saves;
        for (int c : usedCalleeInt)
            saves.emplace_back(RegFile::Int, c);
        for (int c : usedCalleeFlt)
            saves.emplace_back(RegFile::Flt, c);
        std::sort(saves.begin(), saves.end());

        std::unordered_map<int, int64_t> saveOffInt, saveOffFlt;
        for (auto &[file, c] : saves) {
            int64_t off = fn.allocFrameSlot(8, 8);
            (file == RegFile::Int ? saveOffInt : saveOffFlt)[c] = off;
        }

        int64_t frame = (fn.frameSize + 15) & ~int64_t{15};
        ExprPtr sp = rtl::makeReg(RegFile::Int, traits.spReg,
                                  DataType::I64);

        if (frame > 0 || !saves.empty()) {
            std::vector<Inst> pro;
            pro.push_back(rtl::makeAssign(
                sp, rtl::makeBin(rtl::Op::Sub, sp, rtl::makeConst(frame)),
                "prologue"));
            for (auto &[file, c] : saves) {
                int64_t off = (file == RegFile::Int ? saveOffInt
                                                    : saveOffFlt)[c];
                DataType dt = file == RegFile::Int ? DataType::I64
                                                   : DataType::F64;
                pro.push_back(rtl::makeStore(
                    rtl::makeBin(rtl::Op::Add, sp, rtl::makeConst(off)),
                    rtl::makeReg(file, c, dt), dt, "save callee-saved"));
            }
            rtl::Block *entry = fn.entry();
            entry->insts.insert(entry->insts.begin(), pro.begin(),
                                pro.end());

            for (auto &bp : fn.blocks()) {
                rtl::Block *b = bp.get();
                for (size_t i = 0; i < b->insts.size(); ++i) {
                    if (b->insts[i].kind != InstKind::Return)
                        continue;
                    std::vector<Inst> epi;
                    for (auto &[file, c] : saves) {
                        int64_t off = (file == RegFile::Int ? saveOffInt
                                                            : saveOffFlt)[c];
                        DataType dt = file == RegFile::Int ? DataType::I64
                                                           : DataType::F64;
                        epi.push_back(rtl::makeLoad(
                            rtl::makeReg(file, c, dt),
                            rtl::makeBin(rtl::Op::Add, sp,
                                         rtl::makeConst(off)),
                            dt, "restore callee-saved"));
                    }
                    epi.push_back(rtl::makeAssign(
                        sp, rtl::makeBin(rtl::Op::Add, sp,
                                         rtl::makeConst(frame)),
                        "epilogue"));
                    b->insts.insert(b->insts.begin() +
                                    static_cast<ptrdiff_t>(i),
                                    epi.begin(), epi.end());
                    i += epi.size();
                }
            }
        }
        fn.recomputeCfg();
        fn.renumber();
        return true;
    }
    return false;
}

} // namespace wmstream::opt
