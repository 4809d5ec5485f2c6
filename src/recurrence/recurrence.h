/**
 * @file
 * Recurrence detection and optimization (paper, Step 4).
 *
 * For every safe partition containing both reads and writes, identify
 * read/write pairs where the read fetches a value written on a
 * previous iteration, and carry that value in registers instead:
 * the store's value is retained in register chain[0], the loads at
 * iteration-distance k are replaced by chain[k], the chain is shifted
 * at the top of the loop, and the loop preheader primes it with the
 * initial loads. One more register than the degree of the recurrence
 * is required.
 *
 * The algorithm is machine-independent; the machine-specific part
 * (how loads/stores are rewritten) lives in the RTL Load/Store
 * instruction shapes themselves.
 */

#ifndef WMSTREAM_RECURRENCE_RECURRENCE_H
#define WMSTREAM_RECURRENCE_RECURRENCE_H

#include <string>
#include <vector>

#include "obs/remarks.h"
#include "rtl/inst.h"
#include "rtl/machine.h"

namespace wmstream::recurrence {

/**
 * Metadata for one rewritten recurrence, recorded so the IR verifier
 * can check chain legality right after the pass runs (cleanup later
 * dissolves chains legitimately): the shift chain must sit at the top
 * of the loop header in oldest-first order — chain[k] := chain[k-1]
 * for k = degree..1, each old value read before it is clobbered — and
 * the preheader must prime chain[0..degree-1] from memory.
 */
struct RecurrenceChain
{
    std::string function;
    std::string header;         ///< loop header block label
    std::string preheader;      ///< block holding the priming loads
    bool flt = false;           ///< VFlt chain (else VInt)
    int degree = 0;             ///< iteration distance ("dee - cee")
    std::vector<int> chainRegs; ///< virtual indices, chain[0..degree]
};

/** What the pass did, for tests and the experiment harnesses. */
struct RecurrenceReport
{
    int loopsExamined = 0;
    int recurrencesOptimized = 0;  ///< partitions rewritten
    int loadsDeleted = 0;
    int maxDegree = 0;
    std::vector<std::string> partitionDumps; ///< per-loop Step 1-3 output
    std::vector<RecurrenceChain> chains;     ///< for the IR verifier
};

/**
 * The largest recurrence degree the pass rewrites: degree + 1
 * registers are needed, and the paper notes recurrences may be skipped
 * "because there may not be enough registers".
 */
inline constexpr int kMaxDegree = 4;

/**
 * Run the recurrence optimization over all innermost loops of @p fn.
 *
 * Each partition-level accept/reject decision is recorded in
 * @p remarks with a stable reason code (`recurrence-optimized`,
 * `degree-exceeds-registers`, `read-ahead-of-write`, ...) at the
 * source position of the responsible memory reference.
 *
 * @p skipDistanceCheck is fault injection for the differential fuzzer's
 * self-test ONLY: it disables the same-cell (distance-0) legality
 * check, deliberately miscompiling loops whose write is read back at
 * the same cell in the same iteration. wmfuzz must catch, deduplicate,
 * and minimize the resulting divergences; nothing else may set it.
 */
RecurrenceReport runRecurrenceOpt(rtl::Function &fn,
                                  const rtl::MachineTraits &traits,
                                  obs::RemarkCollector &remarks,
                                  bool skipDistanceCheck = false);

} // namespace wmstream::recurrence

#endif // WMSTREAM_RECURRENCE_RECURRENCE_H
