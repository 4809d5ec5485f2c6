/**
 * @file
 * Optimization remarks with source provenance.
 *
 * LLVM-style structured remarks for the two paper passes: every
 * accept/reject decision the recurrence and streaming optimizers make
 * about a loop or a memory reference is recorded as a Remark — pass,
 * loop id, source position, verdict (applied/missed), a stable
 * reason code, and the key operands (stride, trip count, FIFO
 * assignment, ...). `wmc --remarks[=json|text]` serializes the
 * collection; `tools/wmreport` joins it with simulator stats.
 *
 * The collector also owns the **loop-id registry**: every source loop
 * gets one small integer id, keyed by (function, header label). The
 * code expander registers loops with their source position as it emits
 * them, the optimization passes look ids up when they emit remarks,
 * and the driver's final loop-tagging step stamps the same ids onto
 * the RTL instructions so the simulator can attribute cycles per
 * source loop. One registry, three consumers — that is what makes the
 * remark/cycle join line up.
 */

#ifndef WMSTREAM_OBS_REMARKS_H
#define WMSTREAM_OBS_REMARKS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "support/diag.h"

namespace wmstream::obs {

/** Did the pass apply the transformation or miss it? */
enum class RemarkVerdict : uint8_t { Applied, Missed };

/** "applied" / "missed". */
const char *remarkVerdictName(RemarkVerdict v);

/** One named operand of a remark (stride, trip count, FIFO, ...). */
struct RemarkArg
{
    std::string name;
    std::string value;
};

/** One structured optimization remark. */
struct Remark
{
    std::string pass;     ///< "streaming", "recurrence", ...
    std::string function;
    int loopId = -1;      ///< registry id (see RemarkCollector)
    SourcePos loc;        ///< loop or memory-reference position
    RemarkVerdict verdict = RemarkVerdict::Missed;
    /**
     * Stable lower-kebab-case reason code, e.g.
     * "trip-count-too-small", "memory-recurrence-remains",
     * "not-every-iteration", "no-fifo-available", "streamed".
     */
    std::string reason;
    std::vector<RemarkArg> args;

    Remark &arg(std::string name, std::string value);
    Remark &arg(std::string name, int64_t value);

    /** One human-readable line: "12:5: streaming missed ...". */
    std::string str() const;
};

/** One registered source loop. */
struct LoopRecord
{
    int id = -1;
    std::string function;
    std::string header;   ///< RTL header block label
    SourcePos loc;        ///< position of the loop statement
};

/**
 * Collects remarks and owns the loop-id registry for one compilation.
 *
 * Exact duplicate remarks are dropped on add(): the iterative pass
 * drivers re-analyze a loop after each successful rewrite, so the same
 * rejection can legitimately be re-derived several times.
 */
class RemarkCollector
{
  public:
    /**
     * Id of loop (function, header), registering it on first sight.
     * A valid @p loc fills in or upgrades the record's position; an
     * invalid one leaves the registered position alone.
     */
    int loopId(const std::string &function, const std::string &header,
               SourcePos loc = {});

    /** Record a remark (deduplicated); returns it for arg() chaining. */
    Remark &add(Remark r);

    const std::vector<Remark> &remarks() const { return remarks_; }
    const std::vector<LoopRecord> &loops() const { return loops_; }

    /** Registered record for @p id, or nullptr. */
    const LoopRecord *findLoop(int id) const;

    /** Remarks with @p reason (tests assert exact reason codes). */
    std::vector<const Remark *> byReason(const std::string &reason) const;

    /**
     * Serialize as {"schema_version":N, "file":..., "loops":[...],
     * "remarks":[...]}; @p sourceFile names the compiled buffer.
     */
    void writeJson(JsonWriter &w, const std::string &sourceFile) const;

    /** All remarks as "file:line:col: pass verdict: ..." lines. */
    std::string text(const std::string &sourceFile) const;

  private:
    std::vector<LoopRecord> loops_;
    std::vector<Remark> remarks_;
};

/**
 * Where a loop pass reports on one loop: the one remark site of the
 * recurrence and streaming passes. Construction gets or creates the
 * loop's registry id from (function, header), upgrading the record
 * with @p loc, and locates the loop at the registered position (the
 * expander's loop statement, when it registered the loop). Every
 * remark made here carries the pass, the function and that id, and
 * sits at the given reference position, or at the loop when that is
 * invalid.
 *
 * RemarkCollector::add() compares whole remarks, arguments included,
 * so give a remark all of its arg()s before add().
 */
class LoopRemarkSite
{
  public:
    LoopRemarkSite(RemarkCollector &remarks, const char *pass,
                   const std::string &function, const std::string &header,
                   SourcePos loc);

    int loopId() const { return loopId_; }

    Remark missed(const char *reason, SourcePos at = {}) const;
    Remark applied(const char *reason, SourcePos at = {}) const;

    /** Record @p r in the collector. */
    void add(Remark r) const { remarks_.add(std::move(r)); }

  private:
    RemarkCollector &remarks_;
    const char *pass_;
    std::string function_;
    int loopId_;
    SourcePos loc_;

    Remark make(RemarkVerdict verdict, const char *reason,
                SourcePos at) const;
};

} // namespace wmstream::obs

#endif // WMSTREAM_OBS_REMARKS_H
