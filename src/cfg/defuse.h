/**
 * @file
 * The whole-function def/use table that the loop sweep shares.
 *
 * For every register it holds how many instructions define it and how
 * many times it is read, and the site of the only def or use when
 * there is exactly one. A loop pass asks these questions for each loop
 * it visits; scanning the whole function per question made every
 * visit cost O(function). The sweep (cfg::forEachLoop) builds the table
 * once and, after a visit that changed code, re-scans only the blocks
 * that visit may have edited (DESIGN §17).
 *
 * Each block's contribution is kept, so re-scanning a block first
 * subtracts what it added before. A register's sites are kept as a sum
 * of encoded (block id, index) pairs: with one site the sum is that
 * site, and a subtraction removes one. Defs are what cfg::forEachDef
 * reports (a Call clobbers the caller-saved registers), uses what
 * cfg::forEachUse reports, duplicates included.
 */

#ifndef WMSTREAM_CFG_DEFUSE_H
#define WMSTREAM_CFG_DEFUSE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cfg/regkey.h"
#include "rtl/inst.h"
#include "rtl/machine.h"

namespace wmstream::cfg {

/** An instruction position: block plus index (null block: none). */
struct Site
{
    rtl::Block *block = nullptr;
    size_t index = 0;
};

class DefUseTable
{
  public:
    /** Scan every block of @p fn; counted in fn.work.defUseBuilds. */
    DefUseTable(rtl::Function &fn, const rtl::MachineTraits &traits);

    int defCount(const RegKey &k) const { return regs_.get(k).defs; }
    int useCount(const RegKey &k) const { return regs_.get(k).uses; }

    /** The only def of @p k; a null block unless defCount(k) == 1. */
    Site uniqueDef(const RegKey &k) const;
    /** The only use of @p k; a null block unless useCount(k) == 1. */
    Site uniqueUse(const RegKey &k) const;
    /**
     * The def of @p k other than @p known, when @p k has exactly two
     * defs and @p known is one of them; a null block otherwise.
     */
    Site otherDef(const RegKey &k, Site known) const;

    /**
     * Replace @p b's contribution with that of its current
     * instructions; counted in fn.work.defUseBlockRescans.
     */
    void rescan(rtl::Block *b);

    /**
     * True if a fresh scan of the function gives the same table. The
     * differential check of rescan(); builds a table without counting.
     */
    bool matchesFunction() const;

  private:
    struct Counts
    {
        int defs = 0;
        int uses = 0;
        uint64_t defSites = 0; ///< sum of encoded def sites
        uint64_t useSites = 0; ///< sum of encoded use sites

        bool operator==(const Counts &) const = default;
    };
    /** One def or use one block added to the table. */
    struct Entry
    {
        RegKey key;
        uint32_t index;
        bool def;
    };
    /** A block's entries: [begin, end) of entries_. */
    struct Span
    {
        uint32_t begin = 0;
        uint32_t end = 0;
    };

    struct Uncounted {};
    DefUseTable(rtl::Function &fn, const rtl::MachineTraits &traits,
                Uncounted);

    void scanAll();
    void scanBlock(rtl::Block *b);
    void apply(const Entry &e, uint32_t blockId, int sign);
    Site decode(uint64_t site) const;

    rtl::Function &fn_;
    rtl::MachineTraits traits_;
    RegKeyTable<Counts> regs_;
    std::vector<Entry> entries_;
    std::vector<Span> spans_;          ///< by block id
    std::vector<rtl::Block *> byId_;   ///< scanned blocks by id
};

} // namespace wmstream::cfg

#endif // WMSTREAM_CFG_DEFUSE_H
