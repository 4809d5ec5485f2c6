#include "cfg/defuse.h"

#include <algorithm>

#include "support/diag.h"

namespace wmstream::cfg {

namespace {

uint64_t
encode(uint32_t blockId, uint32_t index)
{
    return (uint64_t{blockId} << 32) | index;
}

} // anonymous namespace

DefUseTable::DefUseTable(rtl::Function &fn, const rtl::MachineTraits &traits)
    : DefUseTable(fn, traits, Uncounted{})
{
    ++fn.work.defUseBuilds;
}

DefUseTable::DefUseTable(rtl::Function &fn, const rtl::MachineTraits &traits,
                         Uncounted)
    : fn_(fn), traits_(traits)
{
    scanAll();
}

void
DefUseTable::scanAll()
{
    size_t ids = static_cast<size_t>(fn_.blockIdBound());
    spans_.assign(ids, Span{});
    byId_.assign(ids, nullptr);
    for (auto &b : fn_.blocks())
        scanBlock(b.get());
}

void
DefUseTable::apply(const Entry &e, uint32_t blockId, int sign)
{
    Counts &c = regs_.at(e.key);
    uint64_t site = encode(blockId, e.index);
    if (e.def) {
        c.defs += sign;
        c.defSites += sign > 0 ? site : -site;
    } else {
        c.uses += sign;
        c.useSites += sign > 0 ? site : -site;
    }
}

void
DefUseTable::rescan(rtl::Block *b)
{
    ++fn_.work.defUseBlockRescans;
    scanBlock(b);
}

void
DefUseTable::scanBlock(rtl::Block *b)
{
    auto id = static_cast<uint32_t>(b->id());
    if (id >= spans_.size()) {
        spans_.resize(id + 1);
        byId_.resize(id + 1, nullptr);
    }
    byId_[id] = b;
    Span &span = spans_[id];
    for (uint32_t i = span.begin; i < span.end; ++i)
        apply(entries_[i], id, -1);

    // Scan into the tail, then move the entries back into the old span
    // when they fit, so a block that did not grow leaves no garbage.
    auto start = static_cast<uint32_t>(entries_.size());
    for (size_t i = 0; i < b->insts.size(); ++i) {
        auto index = static_cast<uint32_t>(i);
        forEachDef(b->insts[i], traits_, [&](const RegKey &k) {
            entries_.push_back({k, index, true});
        });
        forEachUse(b->insts[i], [&](const RegKey &k) {
            entries_.push_back({k, index, false});
        });
    }
    auto n = static_cast<uint32_t>(entries_.size()) - start;
    if (n <= span.end - span.begin) {
        std::copy(entries_.begin() + start, entries_.end(),
                  entries_.begin() + span.begin);
        entries_.resize(start);
        span.end = span.begin + n;
    } else {
        span = {start, start + n};
    }
    for (uint32_t i = span.begin; i < span.end; ++i)
        apply(entries_[i], id, +1);
}

Site
DefUseTable::decode(uint64_t site) const
{
    auto id = static_cast<size_t>(site >> 32);
    WS_ASSERT(id < byId_.size() && byId_[id], "def/use site in no block");
    return {byId_[id], static_cast<size_t>(site & 0xffffffffu)};
}

Site
DefUseTable::uniqueDef(const RegKey &k) const
{
    Counts c = regs_.get(k);
    return c.defs == 1 ? decode(c.defSites) : Site{};
}

Site
DefUseTable::uniqueUse(const RegKey &k) const
{
    Counts c = regs_.get(k);
    return c.uses == 1 ? decode(c.useSites) : Site{};
}

Site
DefUseTable::otherDef(const RegKey &k, Site known) const
{
    Counts c = regs_.get(k);
    if (c.defs != 2 || !known.block)
        return {};
    return decode(c.defSites -
                  encode(static_cast<uint32_t>(known.block->id()),
                         static_cast<uint32_t>(known.index)));
}

bool
DefUseTable::matchesFunction() const
{
    DefUseTable fresh(fn_, traits_, Uncounted{});
    return fresh.regs_ == regs_;
}

} // namespace wmstream::cfg
