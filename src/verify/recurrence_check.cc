/**
 * @file
 * Recurrence-chain legality checks.
 *
 * The recurrence pass reports every chain it builds (RecurrenceChain
 * in recurrence.h). Right after the pass — before copy propagation
 * legitimately dissolves chains — the verifier re-derives the shape
 * the rewrite must have produced and checks it:
 *
 *  - the chain registers are pairwise distinct and the shift
 *    `chain[k] := chain[k-1]` exists in the loop header for every
 *    k = degree..1 (one shift per distance step, matching the
 *    (cee, dee) iteration distance);
 *
 *  - the shifts run oldest-first: chain[k] is written before
 *    chain[k-1], so every old value is read before it is clobbered —
 *    the property that makes the chain cycle-free. A reversed pair
 *    would feed this iteration's value to a slot meant to hold an
 *    older one;
 *
 *  - the preheader primes chain[0..degree-1] (the first iteration
 *    reads values written before the loop was entered) and dominates
 *    the loop header, so the primes execute on every path into the
 *    loop.
 */

#include "verify/verify.h"

#include <optional>

#include "cfg/dominators.h"
#include "rtl/inst.h"
#include "support/str.h"

namespace wmstream::verify {

namespace {

using recurrence::RecurrenceChain;
using rtl::Inst;
using rtl::InstKind;
using rtl::RegFile;

std::string
chainName(const RecurrenceChain &c)
{
    const char *p = c.flt ? "vf" : "vr";
    if (c.chainRegs.empty())
        return "<empty-chain>";
    return strFormat("%s%d..%s%d", p, c.chainRegs.front(), p,
                     c.chainRegs.back());
}

} // anonymous namespace

VerifyReport
verifyRecurrenceChains(rtl::Function &fn,
                       const std::vector<RecurrenceChain> &chains,
                       const std::string &pass)
{
    VerifyReport out;
    out.pass = pass;
    out.stage = Stage::PostOpt;

    std::optional<cfg::DominatorTree> dt; // built once, on first use
    for (const RecurrenceChain &c : chains) {
        if (c.function != fn.name())
            continue;
        RegFile file = c.flt ? RegFile::VFlt : RegFile::VInt;
        const std::string name = chainName(c);

        if (static_cast<int>(c.chainRegs.size()) != c.degree + 1) {
            Violation &v =
                detail::addViolation(out, "recurrence-shift-mismatch",
                                     fn);
            v.loopHeader = c.header;
            v.invariant = name;
            v.detail = strFormat(
                "chain has %d register(s) for degree %d; a degree-d "
                "recurrence needs d+1",
                static_cast<int>(c.chainRegs.size()), c.degree);
            continue;
        }
        for (size_t i = 0; i < c.chainRegs.size(); ++i)
            for (size_t j = i + 1; j < c.chainRegs.size(); ++j)
                if (c.chainRegs[i] == c.chainRegs[j]) {
                    Violation &v = detail::addViolation(
                        out, "recurrence-shift-cycle", fn);
                    v.loopHeader = c.header;
                    v.invariant = name;
                    v.detail = strFormat(
                        "chain register %s%d appears at distances "
                        "%d and %d: the shift chain has a cycle",
                        c.flt ? "vf" : "vr", c.chainRegs[i],
                        static_cast<int>(i), static_cast<int>(j));
                }

        rtl::Block *header = fn.findBlock(c.header);
        rtl::Block *pre = fn.findBlock(c.preheader);
        if (!header || !pre) {
            Violation &v = detail::addViolation(
                out, "recurrence-prime-missing", fn);
            v.loopHeader = c.header;
            v.invariant = name;
            v.detail = strFormat(
                "chain block %s no longer exists",
                (header ? c.preheader : c.header).c_str());
            continue;
        }

        // Locate each shift chain[k] := chain[k-1] in the header.
        std::vector<int> shiftAt(
            static_cast<size_t>(c.degree) + 1, -1);
        for (int k = c.degree; k >= 1; --k) {
            for (size_t i = 0; i < header->insts.size(); ++i) {
                const Inst &inst = header->insts[i];
                if (inst.kind == InstKind::Assign && inst.dst &&
                        inst.src &&
                        inst.dst->isReg(file, c.chainRegs[k]) &&
                        inst.src->isReg(file, c.chainRegs[k - 1])) {
                    shiftAt[static_cast<size_t>(k)] =
                        static_cast<int>(i);
                    break;
                }
            }
            if (shiftAt[static_cast<size_t>(k)] < 0) {
                Violation &v = detail::addViolation(
                    out, "recurrence-shift-mismatch", fn);
                v.block = header->label();
                v.loopHeader = c.header;
                v.invariant = name;
                v.detail = strFormat(
                    "missing shift %s%d := %s%d for distance %d",
                    c.flt ? "vf" : "vr", c.chainRegs[k],
                    c.flt ? "vf" : "vr", c.chainRegs[k - 1], k);
            }
        }

        // Oldest-first: chain[k] must be written before chain[k-1]
        // is, or the old value is clobbered before it is read.
        for (int k = c.degree; k >= 2; --k) {
            int a = shiftAt[static_cast<size_t>(k)];
            int b = shiftAt[static_cast<size_t>(k - 1)];
            if (a < 0 || b < 0)
                continue;
            if (a > b) {
                Violation &v = detail::addViolation(
                    out, "recurrence-shift-cycle", fn);
                v.block = header->label();
                v.loopHeader = c.header;
                v.invariant = name;
                v.detail = strFormat(
                    "shift of distance %d runs after the shift of "
                    "distance %d: %s%d is clobbered before it is "
                    "read",
                    k, k - 1, c.flt ? "vf" : "vr",
                    c.chainRegs[k - 1]);
            }
        }

        // The preheader primes chain[0..degree-1] and dominates the
        // header (the first iteration reads primed values on every
        // path into the loop).
        for (int k = 0; k < c.degree; ++k) {
            bool primed = false;
            for (const Inst &inst : pre->insts) {
                auto d = rtl::instDef(inst);
                if (d && d->isReg(file, c.chainRegs[k])) {
                    primed = true;
                    break;
                }
            }
            if (!primed) {
                Violation &v = detail::addViolation(
                    out, "recurrence-prime-missing", fn);
                v.block = pre->label();
                v.loopHeader = c.header;
                v.invariant = name;
                v.detail = strFormat(
                    "preheader %s does not prime %s%d (distance %d)",
                    pre->label().c_str(), c.flt ? "vf" : "vr",
                    c.chainRegs[k], k + 1);
            }
        }
        if (!dt) {
            fn.recomputeCfg();
            dt.emplace(fn);
        }
        if (!dt->dominates(pre, header)) {
            Violation &v = detail::addViolation(
                out, "recurrence-prime-missing", fn);
            v.block = pre->label();
            v.loopHeader = c.header;
            v.invariant = name;
            v.detail = strFormat(
                "priming block %s does not dominate loop header %s",
                pre->label().c_str(), header->label().c_str());
        }
    }
    return out;
}

} // namespace wmstream::verify
