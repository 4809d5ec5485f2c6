/**
 * @file
 * The code expander: AST to naive target RTL.
 *
 * Following the paper's compiler structure, the expander produces
 * "naive but correct" code: one RTL per source-level operator, all
 * scalar values in virtual registers, every load/store explicit.
 * "All code generation and optimization decisions are delayed until the
 * target architecture information is available" — the expander is
 * parameterized by MachineTraits and the later combine phase merges
 * RTLs into the target's instruction shapes (dual-operation
 * instructions on WM).
 *
 * Loop statements expand in the guarded, bottom-test form the paper's
 * Figure 4 shows: a guard compare-and-branch around the loop and a
 * compare-and-branch back edge at the bottom, which yields single-block
 * bodies for simple loops.
 */

#ifndef WMSTREAM_EXPAND_EXPANDER_H
#define WMSTREAM_EXPAND_EXPANDER_H

#include <unordered_map>
#include <vector>

#include "frontend/ast.h"
#include "obs/remarks.h"
#include "rtl/machine.h"
#include "rtl/program.h"

namespace wmstream::expand {

/**
 * Expand @p unit into @p out for the given target.
 *
 * Adds one rtl::Function per defined function, one GlobalVar per global
 * and string-pool entry (with initial bytes), and constant-pool entries
 * for floating literals. Call after Sema succeeded.
 *
 * Every emitted instruction is stamped with the source position of the
 * statement/expression it came from (Inst::pos). Each source loop is
 * registered in the loop-id registry of @p remarks (keyed by function +
 * header label) in source order, so optimization remarks and per-loop
 * cycle attribution share ids numbered the way a reader of the source
 * would number the loops.
 */
void expandUnit(const frontend::TranslationUnit &unit,
                const rtl::MachineTraits &traits, rtl::Program &out,
                obs::RemarkCollector &remarks);

} // namespace wmstream::expand

#endif // WMSTREAM_EXPAND_EXPANDER_H
