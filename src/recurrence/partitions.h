/**
 * @file
 * Memory-reference partitions (paper, "Recurrence Detection and
 * Optimization Algorithm", Steps 1–3).
 *
 * Each memory reference executed in a loop is summarized by the
 * paper's vector
 *
 *     (lno, acc, iv^dir, cee, dee, roffset)
 *
 * and the references are grouped into partitions that touch disjoint
 * sections of memory: one partition per global symbol, per opaque
 * loop-invariant base register (pointer parameter), or per walking
 * pointer induction variable. References whose address cannot be
 * analyzed join every partition conceptually; we record them as
 * `unknownRefs` and the consumers apply the paper's conservative
 * treatment.
 *
 * Both the recurrence optimization and the streaming optimization
 * consume this structure ("the algorithm makes use of the memory
 * partition information collected in the previous algorithm").
 */

#ifndef WMSTREAM_RECURRENCE_PARTITIONS_H
#define WMSTREAM_RECURRENCE_PARTITIONS_H

#include <string>
#include <vector>

#include "cfg/loops.h"
#include "opt/indvars.h"
#include "rtl/inst.h"

namespace wmstream::recurrence {

/** One memory reference in the loop: the paper's partition vector. */
struct MemRef
{
    int lno = -1;               ///< instruction id where it occurs
    bool isWrite = false;       ///< 'acc': read or write
    rtl::Block *block = nullptr;
    size_t index = 0;           ///< instruction index within block
    const opt::BasicIV *iv = nullptr; ///< induction variable (or null)
    int64_t cee = 0;            ///< multiplier on the IV, in bytes
    opt::LinForm dee;           ///< base + constant part of the address
    int64_t roffset = 0;        ///< dee constant relative to the base
    rtl::DataType type = rtl::DataType::I64;
    bool analyzable = false;

    /** Source position of the reference's instruction. */
    SourcePos pos() const { return block->insts[index].pos; }

    /** Render as the paper does: "(14,r,r22+,8,_x-8,-8)". */
    std::string str() const;
};

/** A partition: references into one disjoint region of memory. */
struct Partition
{
    std::string key;            ///< base identity
    std::vector<MemRef> refs;
    bool safe = true;           ///< paper Step 3a/3b result

    bool hasWrite() const;
    bool hasRead() const;
    std::string str() const;
};

/** All partitions of one loop. */
struct PartitionSet
{
    std::vector<Partition> parts;
    /** References whose region is unknown (join every partition). */
    std::vector<MemRef> unknownRefs;

    bool unknownWriteExists() const;
    bool unknownReadExists() const;
    std::string str() const;
};

/**
 * Build partitions for @p loop (Steps 1–3 of the paper's algorithm).
 *
 * @p ivs must be an analysis of the same loop. MemRef::lno is the
 * instruction's current id: renumber the function first when the
 * partitions are to be printed.
 */
PartitionSet buildPartitions(const cfg::Loop &loop,
                             opt::IndVarAnalysis &ivs);

} // namespace wmstream::recurrence

#endif // WMSTREAM_RECURRENCE_PARTITIONS_H
