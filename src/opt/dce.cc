#include "cfg/liveness.h"
#include "opt/passes.h"

namespace wmstream::opt {

using cfg::RegKey;
using rtl::Inst;
using rtl::InstKind;

namespace {

/** Instructions reading the data FIFOs must never be deleted: each
 *  read consumes one element of a hardware queue. */
bool
consumesFifo(const Inst &inst)
{
    bool found = false;
    rtl::forEachUseReg(inst, [&](const rtl::Expr &r) {
        found |= rtl::isDataFifoReg(r);
    });
    return found;
}

/** A FIFO-register destination is an enqueue: also a side effect. */
bool
producesFifo(const Inst &inst)
{
    auto d = rtl::instDef(inst);
    return d && rtl::isDataFifoReg(*d);
}

} // anonymous namespace

int
runDeadCodeElim(rtl::Function &fn, const rtl::MachineTraits &traits)
{
    // Every round but the last deletes at least one instruction, so
    // the loop ends.
    int deleted = 0;
    for (;;) {
        cfg::Liveness live(fn, traits);
        std::vector<dataflow::BitsetWord> liveSet(live.bitsetWords());
        std::vector<size_t> dead;
        int before = deleted;
        for (auto &bp : fn.blocks()) {
            rtl::Block *b = bp.get();
            dataflow::bitsetCopy(liveSet.size(), liveSet.data(),
                                 live.liveOutBits(b));
            // Backward scan with a precise local live set; collect
            // indexes to delete, then erase.
            dead.clear();
            for (size_t n = b->insts.size(); n-- > 0;) {
                const Inst &inst = b->insts[n];
                bool removable = (inst.kind == InstKind::Assign ||
                                  inst.kind == InstKind::Load) &&
                                 !consumesFifo(inst) &&
                                 !producesFifo(inst);
                if (removable) {
                    RegKey d{inst.dst->regFile(), inst.dst->regIndex()};
                    bool selfCopy =
                        inst.kind == InstKind::Assign &&
                        inst.src->isReg(d.file, d.index);
                    bool needed = live.test(liveSet.data(), d) &&
                                  !cfg::isZeroReg(d, traits) && !selfCopy;
                    if (!needed) {
                        dead.push_back(n);
                        continue; // do not account its uses
                    }
                }
                live.transferBack(inst, liveSet.data());
            }
            for (size_t idx : dead) {
                b->insts.erase(b->insts.begin() +
                               static_cast<ptrdiff_t>(idx));
                ++deleted;
            }
        }
        if (deleted == before)
            break;
    }
    return deleted;
}

} // namespace wmstream::opt
