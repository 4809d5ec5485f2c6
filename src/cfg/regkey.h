/**
 * @file
 * Register identities and their def/use visitors.
 *
 * A RegKey names one register cell (file plus index). The visitors
 * forEachUse/forEachDef hand an instruction's read and written keys to
 * a callback, in a fixed order, without building a container: the
 * optimizer asks these questions for every instruction on every
 * reinvocation of a phase, so the answers must not cost an allocation.
 * RegKeyTable maps keys to values through one dense vector per
 * register file, so a lookup is two array indexings and no hash.
 */

#ifndef WMSTREAM_CFG_REGKEY_H
#define WMSTREAM_CFG_REGKEY_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "rtl/inst.h"
#include "rtl/machine.h"
#include "support/diag.h"

namespace wmstream::cfg {

/** A register identity: file plus index, hashable. */
struct RegKey
{
    rtl::RegFile file;
    int index;

    bool operator==(const RegKey &o) const
    {
        return file == o.file && index == o.index;
    }
};

struct RegKeyHash
{
    size_t operator()(const RegKey &k) const
    {
        return static_cast<size_t>(k.file) * 1000003u +
               static_cast<size_t>(k.index);
    }
};

/**
 * Apply @p fn to every register key read by @p inst: the registers of
 * rtl::forEachUseReg in the same order, then the condition-code cell a
 * conditional jump dequeues.
 */
template <class F>
void
forEachUse(const rtl::Inst &inst, F &&fn)
{
    rtl::forEachUseReg(inst, [&](const rtl::Expr &r) {
        fn(RegKey{r.regFile(), r.regIndex()});
    });
    if (inst.kind == rtl::InstKind::CondJump)
        fn(RegKey{rtl::RegFile::CC,
                  inst.side == rtl::UnitSide::Int ? 0 : 1});
}

/**
 * Apply @p fn to every register key written by @p inst. A Call clobbers
 * all caller-saved registers of both files plus both CC cells per
 * @p traits.
 */
template <class F>
void
forEachDef(const rtl::Inst &inst, const rtl::MachineTraits &traits, F &&fn)
{
    if (inst.kind == rtl::InstKind::Assign ||
            inst.kind == rtl::InstKind::Load) {
        if (inst.dst) // a malformed Assign is the verifier's to report
            fn(RegKey{inst.dst->regFile(), inst.dst->regIndex()});
    } else if (inst.kind == rtl::InstKind::Call) {
        for (int i = traits.firstAllocatable; i < traits.firstCalleeSaved;
                 ++i) {
            fn(RegKey{rtl::RegFile::Int, i});
            fn(RegKey{rtl::RegFile::Flt, i});
        }
        fn(RegKey{rtl::RegFile::CC, 0});
        fn(RegKey{rtl::RegFile::CC, 1});
    }
}

/** True if @p inst reads @p key. */
inline bool
readsKey(const rtl::Inst &inst, const RegKey &key)
{
    bool found = false;
    forEachUse(inst, [&](const RegKey &k) { found = found || k == key; });
    return found;
}

/** True if @p inst writes @p key. */
inline bool
writesKey(const rtl::Inst &inst, const rtl::MachineTraits &traits,
          const RegKey &key)
{
    bool found = false;
    forEachDef(inst, traits,
               [&](const RegKey &k) { found = found || k == key; });
    return found;
}

/** True if @p key is a hardwired zero register per @p traits. */
inline bool
isZeroReg(const RegKey &key, const rtl::MachineTraits &traits)
{
    return (key.file == rtl::RegFile::Int ||
            key.file == rtl::RegFile::Flt) &&
           key.index == traits.zeroReg;
}

/**
 * A map from RegKey to @p T held as one vector per register file,
 * indexed by register number and grown on first write. Keys never
 * written read as the table's absent value.
 */
template <class T>
class RegKeyTable
{
  public:
    explicit RegKeyTable(T absent = T{}) : absent_(absent) {}

    /** The value at @p k, or the absent value. */
    T get(const RegKey &k) const
    {
        const std::vector<T> &v = files_[static_cast<size_t>(k.file)];
        size_t i = static_cast<size_t>(k.index);
        return i < v.size() ? v[i] : absent_;
    }

    /** The slot of @p k, created holding the absent value. */
    T &at(const RegKey &k)
    {
        WS_ASSERT(k.index >= 0, "negative register index");
        std::vector<T> &v = files_[static_cast<size_t>(k.file)];
        size_t i = static_cast<size_t>(k.index);
        if (i >= v.size())
            v.resize(i + 1, absent_);
        return v[i];
    }

    /** True if every key reads the same in both tables. */
    bool operator==(const RegKeyTable &o) const
    {
        for (size_t f = 0; f < files_.size(); ++f) {
            const std::vector<T> &a = files_[f];
            const std::vector<T> &b = o.files_[f];
            for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
                const T &x = i < a.size() ? a[i] : absent_;
                const T &y = i < b.size() ? b[i] : o.absent_;
                if (!(x == y))
                    return false;
            }
        }
        return true;
    }

  private:
    std::array<std::vector<T>, rtl::kNumRegFiles> files_;
    T absent_;
};

} // namespace wmstream::cfg

#endif // WMSTREAM_CFG_REGKEY_H
