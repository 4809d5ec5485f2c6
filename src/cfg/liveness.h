/**
 * @file
 * Live-variable analysis over registers (virtual, physical, and CC).
 *
 * The classic backward may-analysis. Used by dead-code elimination,
 * the streaming pass's dead-induction-variable deletion (paper Step 2j),
 * and register assignment.
 *
 * Internally this runs on the pooled-bitset worklist engine
 * (src/dataflow): registers are numbered densely per function through
 * a RegKeyTable, block gen/kill sets are bit vectors, and the backward
 * union solve is word-parallel. Clients read the solved bits directly
 * (liveIn/liveOut/forEachLiveIn, or the raw vectors); nothing is
 * materialized into a hash set.
 */

#ifndef WMSTREAM_CFG_LIVENESS_H
#define WMSTREAM_CFG_LIVENESS_H

#include <cstdint>
#include <memory>
#include <vector>

#include "cfg/regkey.h"
#include "dataflow/bitset.h"
#include "dataflow/cfg_index.h"
#include "dataflow/pool.h"
#include "dataflow/solver.h"
#include "rtl/inst.h"
#include "rtl/machine.h"

namespace wmstream::cfg {

/** Per-block liveness sets for one function. */
class Liveness
{
  public:
    Liveness(rtl::Function &fn, const rtl::MachineTraits &traits);

    /** True if @p key is live on entry to / exit from @p b. */
    bool liveIn(const rtl::Block *b, const RegKey &key) const
    {
        return test(liveInBits(b), key);
    }
    bool liveOut(const rtl::Block *b, const RegKey &key) const
    {
        return test(liveOutBits(b), key);
    }

    /** True if @p key's bit is set in @p bits (bitsetWords() words). */
    bool test(const dataflow::BitsetWord *bits, const RegKey &key) const
    {
        int i = keyIndex(key);
        return i >= 0 && dataflow::bitsetTest(bits, static_cast<size_t>(i));
    }

    /**
     * Step the live set @p live (bitsetWords() words) backward over
     * @p inst: clear what it writes, then set what it reads (the zero
     * register excepted). Starting from a block's live-out bits and
     * stepping over its instructions last to first gives the live set
     * before each one. Every key of @p inst must be in the function.
     */
    void transferBack(const rtl::Inst &inst,
                      dataflow::BitsetWord *live) const;

    /** Apply @p fn to every key live on entry to @p b, in key order. */
    template <class F>
    void forEachLiveIn(const rtl::Block *b, F &&fn) const
    {
        dataflow::bitsetForEach(solver_->words(), liveInBits(b),
                                [&](size_t i) { fn(keys_[i]); });
    }

    /**
     * True if @p key is live immediately after instruction @p idx of
     * block @p b (i.e. some later use may read the value present there).
     */
    bool liveAfter(const rtl::Block *b, size_t idx, const RegKey &key) const;

    /** Dense index of @p key, or -1 when the key never appears in the
     *  function (such a key is trivially dead everywhere). */
    int keyIndex(const RegKey &key) const { return keyIndex_.get(key); }
    size_t numKeys() const { return keys_.size(); }
    const RegKey &key(size_t i) const { return keys_[i]; }

    /** Raw live-out bit vector of @p b (numKeys() bits). */
    const dataflow::BitsetWord *liveOutBits(const rtl::Block *b) const
    {
        return solver_->out(cfg_->indexOf(b));
    }
    const dataflow::BitsetWord *liveInBits(const rtl::Block *b) const
    {
        return solver_->in(cfg_->indexOf(b));
    }
    size_t bitsetWords() const { return solver_->words(); }

  private:
    const rtl::MachineTraits traits_;
    std::vector<RegKey> keys_;
    RegKeyTable<int> keyIndex_{-1};
    dataflow::BitsetPool pool_;
    std::unique_ptr<dataflow::CfgIndex> cfg_;
    std::unique_ptr<dataflow::BitsetSolver> solver_;
};

/**
 * True if @p key is live on entry to some block of @p from: a path
 * from its top reads @p key before anything writes it. This is
 * Liveness::liveIn for one key, found by a forward walk that stops at
 * the key's definitions, so it costs the blocks it reaches rather than
 * a whole-function solve. The CFG edges must be current.
 */
bool liveOnEntry(const rtl::Function &fn,
                 const std::vector<rtl::Block *> &from, const RegKey &key,
                 const rtl::MachineTraits &traits);

} // namespace wmstream::cfg

#endif // WMSTREAM_CFG_LIVENESS_H
