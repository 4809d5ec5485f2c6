#include "cfg/liveness.h"

namespace wmstream::cfg {

using rtl::Inst;

Liveness::Liveness(rtl::Function &fn, const rtl::MachineTraits &traits)
    : traits_(traits)
{
    // Number every register key in first-encounter order (a pure
    // function of the RTL, so results are deterministic).
    auto intern = [&](const RegKey &k) {
        int &slot = keyIndex_.at(k);
        if (slot < 0) {
            slot = static_cast<int>(keys_.size());
            keys_.push_back(k);
        }
        return static_cast<size_t>(slot);
    };
    for (auto &b : fn.blocks())
        for (const Inst &inst : b->insts) {
            forEachUse(inst, [&](const RegKey &k) {
                if (!isZeroReg(k, traits_))
                    intern(k);
            });
            forEachDef(inst, traits_, intern);
        }

    cfg_ = std::make_unique<dataflow::CfgIndex>(fn);
    solver_ = std::make_unique<dataflow::BitsetSolver>(
        pool_, *cfg_, keys_.size(), dataflow::Direction::Backward,
        dataflow::Join::Union);

    // gen = upward-exposed uses, kill = defs; a forward scan adding
    // uses not yet killed gives exactly the backward-transfer gen set.
    for (size_t bi = 0; bi < cfg_->size(); ++bi) {
        rtl::Block *b = cfg_->block(bi);
        dataflow::BitsetWord *gen = solver_->gen(bi);
        dataflow::BitsetWord *kill = solver_->kill(bi);
        for (const Inst &inst : b->insts) {
            forEachUse(inst, [&](const RegKey &k) {
                if (isZeroReg(k, traits_))
                    return;
                size_t i = static_cast<size_t>(keyIndex(k));
                if (!dataflow::bitsetTest(kill, i))
                    dataflow::bitsetSet(gen, i);
            });
            forEachDef(inst, traits_, [&](const RegKey &k) {
                dataflow::bitsetSet(kill,
                                    static_cast<size_t>(keyIndex(k)));
            });
        }
    }

    solver_->solve();
}

void
Liveness::transferBack(const Inst &inst, dataflow::BitsetWord *live) const
{
    forEachDef(inst, traits_, [&](const RegKey &k) {
        dataflow::bitsetReset(live, static_cast<size_t>(keyIndex(k)));
    });
    forEachUse(inst, [&](const RegKey &k) {
        if (!isZeroReg(k, traits_))
            dataflow::bitsetSet(live, static_cast<size_t>(keyIndex(k)));
    });
}

bool
Liveness::liveAfter(const rtl::Block *b, size_t idx, const RegKey &key) const
{
    // Scan forward from idx+1 within the block.
    for (size_t i = idx + 1; i < b->insts.size(); ++i) {
        const Inst &inst = b->insts[i];
        if (readsKey(inst, key))
            return true;
        if (writesKey(inst, traits_, key))
            return false;
    }
    return liveOut(b, key);
}

bool
liveOnEntry(const rtl::Function &fn, const std::vector<rtl::Block *> &from,
            const RegKey &key, const rtl::MachineTraits &traits)
{
    if (isZeroReg(key, traits))
        return false;
    std::vector<uint8_t> seen(static_cast<size_t>(fn.blockIdBound()), 0);
    std::vector<const rtl::Block *> work;
    auto reach = [&](const rtl::Block *b) {
        if (!seen[static_cast<size_t>(b->id())]) {
            seen[static_cast<size_t>(b->id())] = 1;
            work.push_back(b);
        }
    };
    for (const rtl::Block *b : from)
        reach(b);
    while (!work.empty()) {
        const rtl::Block *b = work.back();
        work.pop_back();
        bool killed = false;
        for (const Inst &inst : b->insts) {
            if (readsKey(inst, key))
                return true;
            if (writesKey(inst, traits, key)) {
                killed = true;
                break;
            }
        }
        if (!killed)
            for (const rtl::Block *s : b->succs)
                reach(s);
    }
    return false;
}

} // namespace wmstream::cfg
