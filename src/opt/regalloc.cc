#include <algorithm>
#include <cstdint>
#include <vector>

#include "cfg/liveness.h"
#include "opt/passes.h"
#include "support/diag.h"
#include "support/str.h"

namespace wmstream::opt {

using cfg::RegKey;
using dataflow::BitsetWord;
using rtl::DataType;
using rtl::ExprPtr;
using rtl::Inst;
using rtl::InstKind;
using rtl::RegFile;

namespace {

/** A set of register numbers of one file: bit r is register r. */
using RegMask = uint64_t;

RegMask
regBit(int r)
{
    WS_ASSERT(r >= 0 && r < 64, "register number outside a RegMask");
    return RegMask{1} << r;
}

/** The two allocated files: a virtual file and its physical file. */
constexpr RegFile kVirtualFile[2] = {RegFile::VInt, RegFile::VFlt};
constexpr RegFile kPhysicalFile[2] = {RegFile::Int, RegFile::Flt};

/**
 * The interference graph of one attempt, over the attempt's Liveness
 * key numbering. Row k holds one bit per key: the keys live at a
 * definition of key k, and the keys defined while key k is live. The
 * matrix is symmetric and has no self bits. Of its pairs, one of two
 * virtual keys of a file is an edge, one of a virtual key and a
 * physical key of the matching file forbids that register, and all
 * others are ignored. The buffers outlive an attempt, so a retry after
 * a spill reuses them.
 */
class Interference
{
  public:
    /** Build the graph of @p fn from @p live, solved on it. */
    void build(const rtl::Function &fn, const cfg::Liveness &live,
               const rtl::MachineTraits &traits)
    {
        live_ = &live;
        words_ = live.bitsetWords();
        size_t n = live.numKeys();
        rows_.assign(n * words_, 0);
        defined_.assign(words_, 0);
        for (int f = 0; f < 2; ++f) {
            virtual_[f].assign(words_, 0);
            physical_[f].assign(words_, 0);
        }
        for (size_t k = 0; k < n; ++k)
            for (int f = 0; f < 2; ++f) {
                if (live.key(k).file == kVirtualFile[f])
                    dataflow::bitsetSet(virtual_[f].data(), k);
                if (live.key(k).file == kPhysicalFile[f])
                    dataflow::bitsetSet(physical_[f].data(), k);
            }

        liveSet_.resize(words_);
        BitsetWord *liveSet = liveSet_.data();
        for (const auto &bp : fn.blocks()) {
            const rtl::Block *b = bp.get();
            dataflow::bitsetCopy(words_, liveSet, live.liveOutBits(b));
            for (size_t i = b->insts.size(); i-- > 0;) {
                const Inst &inst = b->insts[i];
                cfg::forEachDef(inst, traits, [&](const RegKey &d) {
                    size_t k = static_cast<size_t>(live.keyIndex(d));
                    dataflow::bitsetOr(words_, row(k), liveSet);
                    dataflow::bitsetSet(defined_.data(), k);
                });
                live.transferBack(inst, liveSet);
            }
        }
        // Drop each key's own bit (a key live across its definition),
        // then mirror every row into the rows of its keys.
        for (size_t k = 0; k < n; ++k) {
            dataflow::bitsetReset(row(k), k);
            dataflow::bitsetForEach(words_, row(k), [&](size_t j) {
                dataflow::bitsetSet(row(j), k);
            });
        }
    }

    /**
     * Color the nodes of allocated file @p f (0 integer, 1 float) into
     * @p color, indexed by key. A node is a virtual key of the file that
     * is defined, has a neighbour or has a forbidden register; other
     * keys keep their virtual register. Highest degree first, then
     * lowest virtual register number; each node takes the lowest
     * register of [@p first, @p last] that is neither forbidden to it
     * nor the color of a colored neighbour.
     * @return the key of the first node that cannot be colored, or -1.
     */
    int colorFile(int f, int first, int last, std::vector<int> &color)
    {
        const BitsetWord *virt = virtual_[f].data();
        const BitsetWord *phys = physical_[f].data();
        nodes_.clear();
        dataflow::bitsetForEach(words_, virt, [&](size_t k) {
            const BitsetWord *r = row(k);
            size_t degree = 0;
            BitsetWord forbidden = 0;
            for (size_t w = 0; w < words_; ++w) {
                degree += static_cast<size_t>(
                    __builtin_popcountll(r[w] & virt[w]));
                forbidden |= r[w] & phys[w];
            }
            if (degree || forbidden ||
                    dataflow::bitsetTest(defined_.data(), k))
                nodes_.push_back({degree, live_->key(k).index, k});
        });
        std::sort(nodes_.begin(), nodes_.end(),
                  [](const Node &x, const Node &y) {
                      if (x.degree != y.degree)
                          return x.degree > y.degree;
                      return x.reg < y.reg;
                  });

        // Caller-saved first, callee-saved as fallback.
        RegMask allowed = 0;
        for (int c = first; c <= last; ++c)
            allowed |= regBit(c);
        for (const Node &v : nodes_) {
            RegMask avail = allowed & ~taken(f, v.key, color);
            if (!avail)
                return static_cast<int>(v.key);
            color[v.key] = __builtin_ctzll(avail);
        }
        return -1;
    }

    /**
     * Panic unless every colored key of file @p f has a register of
     * [@p first, @p last] that is neither forbidden to it nor
     * the color of a neighbour.
     */
    void checkColoring(int f, int first, int last,
                       const std::vector<int> &color)
    {
        dataflow::bitsetForEach(words_, virtual_[f].data(), [&](size_t k) {
            int c = color[k];
            if (c < 0)
                return;
            const RegKey &key = live_->key(k);
            if (c < first || c > last || (taken(f, k, color) & regBit(c)))
                WS_PANIC(strFormat("register allocation gave %s%d "
                                   "register %d, which interferes",
                                   rtl::regFilePrefix(key.file),
                                   key.index, c));
        });
    }

  private:
    struct Node
    {
        size_t degree;  ///< same-file virtual neighbours
        int reg;        ///< virtual register number
        size_t key;
    };

    BitsetWord *row(size_t k) { return rows_.data() + k * words_; }

    /** The registers forbidden to key @p k of file @p f, plus the
     *  colors of its colored neighbours. */
    RegMask taken(int f, size_t k, const std::vector<int> &color)
    {
        RegMask used = 0;
        dataflow::bitsetForEachAnd(words_, row(k), physical_[f].data(),
                                   [&](size_t j) {
            used |= regBit(live_->key(j).index);
        });
        dataflow::bitsetForEachAnd(words_, row(k), virtual_[f].data(),
                                   [&](size_t j) {
            if (color[j] >= 0)
                used |= regBit(color[j]);
        });
        return used;
    }

    const cfg::Liveness *live_ = nullptr;
    size_t words_ = 0;
    std::vector<BitsetWord> rows_;    ///< numKeys() rows of words_ words
    std::vector<BitsetWord> defined_; ///< keys some instruction writes
    std::vector<BitsetWord> liveSet_; ///< the backward walk's live set
    std::vector<BitsetWord> virtual_[2];  ///< keys of kVirtualFile[f]
    std::vector<BitsetWord> physical_[2]; ///< keys of kPhysicalFile[f]
    std::vector<Node> nodes_;
};

/** @p e with every colored virtual register replaced by its color;
 *  @p color is indexed by @p live's keys. */
ExprPtr
substAllRegs(const ExprPtr &e, const cfg::Liveness &live,
             const std::vector<int> &color)
{
    if (!e)
        return e;
    switch (e->kind()) {
      case rtl::Expr::Kind::Reg: {
        int k = live.keyIndex(RegKey{e->regFile(), e->regIndex()});
        if (k < 0 || color[static_cast<size_t>(k)] < 0)
            return e;
        RegFile pf = e->regFile() == RegFile::VInt ? RegFile::Int
                                                   : RegFile::Flt;
        return rtl::makeReg(pf, color[static_cast<size_t>(k)], e->type());
      }
      case rtl::Expr::Kind::Bin: {
        ExprPtr l = substAllRegs(e->lhs(), live, color);
        ExprPtr r = substAllRegs(e->rhs(), live, color);
        if (l == e->lhs() && r == e->rhs())
            return e;
        return rtl::makeBinRaw(e->op(), l, r, e->type());
      }
      case rtl::Expr::Kind::Un: {
        ExprPtr x = substAllRegs(e->lhs(), live, color);
        return x == e->lhs() ? e
                             : rtl::makeUnRaw(e->op(), x, e->type());
      }
      case rtl::Expr::Kind::Mem: {
        ExprPtr a = substAllRegs(e->addr(), live, color);
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

RegAllocResult
runRegAlloc(rtl::Function &fn, const rtl::MachineTraits &traits)
{
    RegAllocResult res;
    Interference graph;
    std::vector<int> color;
    const int lastAllocatable[2] = {traits.lastAllocatableInt,
                                    traits.lastAllocatableFlt};
    while (res.attempts < kRegAllocAttemptCap) {
        ++res.attempts;
        cfg::Liveness live(fn, traits);
        graph.build(fn, live, traits);

        // ---- color: integers, then floats ----
        color.assign(live.numKeys(), -1);
        int victim = -1;
        for (int f = 0; f < 2 && victim < 0; ++f)
            victim = graph.colorFile(f, traits.firstAllocatable,
                                     lastAllocatable[f], color);
        if (victim >= 0) {
            spillRegister(fn, live.key(static_cast<size_t>(victim)),
                          traits);
            continue;
        }
#ifndef NDEBUG
        for (int f = 0; f < 2; ++f)
            graph.checkColoring(f, traits.firstAllocatable,
                                lastAllocatable[f], color);
#endif

        // ---- rewrite ----
        RegMask usedCallee[2] = {0, 0};
        for (size_t k = 0; k < color.size(); ++k)
            if (color[k] >= traits.firstCalleeSaved)
                usedCallee[live.key(k).file == RegFile::VInt ? 0 : 1] |=
                    regBit(color[k]);

        for (auto &bp : fn.blocks()) {
            for (Inst &inst : bp->insts) {
                inst.dst = substAllRegs(inst.dst, live, color);
                inst.src = substAllRegs(inst.src, live, color);
                inst.addr = substAllRegs(inst.addr, live, color);
                inst.count = substAllRegs(inst.count, live, color);
                inst.vecSrc2 = substAllRegs(inst.vecSrc2, live, color);
                for (auto &e : inst.extraUses)
                    e = substAllRegs(e, live, color);
            }
        }

        // ---- prologue / epilogue ----
        // One frame slot per used callee-saved register, in (file,
        // register) order.
        struct Save
        {
            RegFile file;
            int reg;
            int64_t off;
        };
        std::vector<Save> saves;
        for (int f = 0; f < 2; ++f)
            for (RegMask m = usedCallee[f]; m; m &= m - 1)
                saves.push_back({kPhysicalFile[f], __builtin_ctzll(m),
                                 fn.allocFrameSlot(8, 8)});

        int64_t frame = (fn.frameSize + 15) & ~int64_t{15};
        ExprPtr sp = rtl::makeReg(RegFile::Int, traits.spReg,
                                  DataType::I64);

        if (frame > 0 || !saves.empty()) {
            std::vector<Inst> pro;
            pro.push_back(rtl::makeAssign(
                sp, rtl::makeBin(rtl::Op::Sub, sp, rtl::makeConst(frame)),
                "prologue"));
            for (const Save &s : saves) {
                DataType dt = s.file == RegFile::Int ? DataType::I64
                                                     : DataType::F64;
                pro.push_back(rtl::makeStore(
                    rtl::makeBin(rtl::Op::Add, sp, rtl::makeConst(s.off)),
                    rtl::makeReg(s.file, s.reg, dt), dt,
                    "save callee-saved"));
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
                    for (const Save &s : saves) {
                        DataType dt = s.file == RegFile::Int
                                          ? DataType::I64
                                          : DataType::F64;
                        epi.push_back(rtl::makeLoad(
                            rtl::makeReg(s.file, s.reg, dt),
                            rtl::makeBin(rtl::Op::Add, sp,
                                         rtl::makeConst(s.off)),
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
        res.allocated = true;
        return res;
    }
    return res;
}

} // namespace wmstream::opt
