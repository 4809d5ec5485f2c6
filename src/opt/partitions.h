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
 * The recurrence optimization, the streaming optimization and the
 * 68020's strength reduction all read this one analysis ("the
 * algorithm makes use of the memory partition information collected
 * in the previous algorithm"), and build their preheader code for
 * `cee*iv + dee` through the helpers at the end of this file.
 */

#ifndef WMSTREAM_OPT_PARTITIONS_H
#define WMSTREAM_OPT_PARTITIONS_H

#include <string>
#include <vector>

#include "cfg/loops.h"
#include "opt/indvars.h"
#include "rtl/inst.h"

namespace wmstream::opt {

/** One memory reference in the loop: the paper's partition vector. */
struct MemRef
{
    bool isWrite = false;       ///< 'acc': read or write
    rtl::Block *block = nullptr;
    size_t index = 0;           ///< instruction index within block
    const BasicIV *iv = nullptr; ///< induction variable (or null)
    int64_t cee = 0;            ///< multiplier on the IV, in bytes
    LinForm dee;                ///< base + constant part of the address
    int64_t roffset = 0;        ///< dee constant relative to the base
    rtl::DataType type = rtl::DataType::I64;
    bool analyzable = false;

    /** Source position of the reference's instruction. */
    SourcePos pos() const { return block->insts[index].pos; }

    /**
     * Render as the paper does: "(14,r,r22+,8,_x-8,-8)". @p lno is the
     * instruction's ordinal in the function's layout.
     */
    std::string str(int lno) const;
};

/**
 * Identity of a partition's region: a global symbol, an opaque base
 * register, or, for an address with no base, the walking IV (no IV:
 * an absolute address).
 */
struct PartitionKey
{
    LinForm::Base kind = LinForm::Base::None;
    std::string sym;                    ///< Base::Sym
    rtl::RegFile file = rtl::RegFile::Int;
    int reg = -1; ///< Base::Reg: the base; Base::None: the IV, or -1

    /** The key of an analyzed reference. */
    static PartitionKey of(const MemRef &ref);
    /** True if @p ref belongs to the region (no copy of the symbol). */
    bool matches(const MemRef &ref) const;

    /** "_x", "reg:vr3", "iv:vr0" or "absolute". */
    std::string str() const;
};

/** A partition: references into one disjoint region of memory. */
struct Partition
{
    PartitionKey key;
    std::vector<MemRef> refs;
    bool safe = true;           ///< paper Step 3a/3b result

    bool hasWrite() const;
    bool hasRead() const;
};

/** All partitions of one loop. */
struct PartitionSet
{
    std::vector<Partition> parts;
    /** References whose region is unknown (join every partition). */
    std::vector<MemRef> unknownRefs;

    bool unknownWriteExists() const;
    bool unknownReadExists() const;

    /**
     * The dump: one line per partition, then the unknown references.
     * Each reference's lno is its instruction's ordinal in @p fn's
     * current layout, found from one prefix sum of the block sizes.
     */
    std::string str(const rtl::Function &fn) const;
};

/**
 * Build partitions for @p loop (Steps 1–3 of the paper's algorithm).
 * @p ivs must be an analysis of the same loop.
 */
PartitionSet buildPartitions(const cfg::Loop &loop, IndVarAnalysis &ivs);

/**
 * Emit `cee * iv` at the end of the preheader @p pre, where the IV
 * still holds its initial value. Returns @p iv itself when @p cee is
 * 1; otherwise a new register set by a shift (a power of two) or a
 * multiply commented @p comment.
 */
rtl::ExprPtr scaleIV(rtl::Function &fn, rtl::Block *pre,
                     const rtl::ExprPtr &iv, int64_t cee,
                     const char *comment);

/** The listing comments of the instructions materializeAddress emits. */
struct AddressComments
{
    const char *scale;  ///< cee * iv
    const char *symbol; ///< the base symbol's address
    const char *disp;   ///< the final `+ disp`
};

/**
 * Emit `cee*iv + base + disp` at the end of the preheader @p pre,
 * where the IV still holds its initial value; @p base contributes its
 * symbol or register, not its offset. Without @p dst the value is
 * returned: a constant when it has no register part, and no `+ disp`
 * instruction when @p disp is 0. With @p dst the last instruction
 * always writes `dst := sum + disp`.
 */
rtl::ExprPtr materializeAddress(rtl::Function &fn, rtl::Block *pre,
                                const rtl::ExprPtr &iv, int64_t cee,
                                const LinForm &base, int64_t disp,
                                const AddressComments &comments,
                                rtl::ExprPtr dst = nullptr);

} // namespace wmstream::opt

#endif // WMSTREAM_OPT_PARTITIONS_H
