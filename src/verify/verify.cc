/**
 * @file
 * Structural IR validity checks plus the verifier entry points.
 *
 * The FIFO-discipline dataflow lives in fifolint.cc and the
 * recurrence-chain legality check in recurrence_check.cc; this file
 * owns everything that must hold for ANY rtl::Function regardless of
 * target: operand kinds and arity per opcode, resolvable branch and
 * call targets, terminators only at block ends, no fallthrough off
 * the end of the function, the Mem-only-in-Load/Store invariant,
 * register indexes within the target's files, no virtual registers
 * after register assignment, and def-before-use for virtual
 * registers.
 *
 * Ordering matters: branch targets are checked BEFORE
 * Function::recomputeCfg() is called, because recomputeCfg panics on
 * an unknown label — the verifier must turn malformed IR into a
 * diagnostic, not a crash.
 */

#include "verify/verify.h"

#include <algorithm>

#include "cfg/liveness.h"
#include "rtl/inst.h"
#include "support/str.h"

namespace wmstream::verify {

const char *
stageName(Stage s)
{
    switch (s) {
      case Stage::PostExpand: return "post-expand";
      case Stage::PostOpt: return "post-opt";
      case Stage::PostRegalloc: return "post-regalloc";
      case Stage::PostLower: return "post-lower";
    }
    return "unknown";
}

std::string
Violation::signature() const
{
    return reason + '@' + invariant;
}

std::string
joinedSignature(const std::vector<VerifyReport> &reports)
{
    std::vector<std::string> sigs;
    for (const VerifyReport &rep : reports)
        for (const Violation &v : rep.violations)
            sigs.push_back(v.signature());
    std::sort(sigs.begin(), sigs.end());
    sigs.erase(std::unique(sigs.begin(), sigs.end()), sigs.end());
    std::string joined;
    for (size_t i = 0; i < sigs.size(); ++i) {
        if (i)
            joined += ',';
        joined += sigs[i];
    }
    return joined;
}

std::string
Violation::str() const
{
    std::string s = reason;
    s += " [";
    s += function;
    if (!block.empty()) {
        s += '.';
        s += block;
    }
    if (instIndex >= 0)
        s += strFormat("#%d", instIndex);
    s += ']';
    if (!invariant.empty()) {
        s += ' ';
        s += invariant;
    }
    if (!loopHeader.empty()) {
        s += " (loop ";
        s += loopHeader;
        s += ')';
    }
    if (!detail.empty()) {
        s += ": ";
        s += detail;
    }
    if (pos.valid()) {
        s += " @";
        s += pos.str();
    }
    return s;
}

std::string
VerifyReport::str() const
{
    std::string s =
        strFormat("verify %s after '%s': %d violation(s)\n",
                  stageName(stage), pass.c_str(),
                  static_cast<int>(violations.size()));
    for (const Violation &v : violations) {
        s += "  ";
        s += v.str();
        s += '\n';
    }
    return s;
}

namespace detail {

Violation &
addViolation(VerifyReport &out, std::string reason,
             const rtl::Function &fn)
{
    out.violations.emplace_back();
    Violation &v = out.violations.back();
    v.reason = std::move(reason);
    v.function = fn.name();
    return v;
}

void
locate(Violation &v, const rtl::Block &b, const rtl::Inst &inst)
{
    v.block = b.label();
    v.instIndex = static_cast<int>(&inst - b.insts.data());
    v.pos = inst.pos;
}

} // namespace detail

namespace {

using rtl::Expr;
using rtl::ExprPtr;
using rtl::Inst;
using rtl::InstKind;
using rtl::RegFile;
using rtl::isDataFifoReg;

using detail::addViolation;
using detail::locate;

std::string
regName(const Expr &r)
{
    return strFormat("%s%d", rtl::regFilePrefix(r.regFile()),
                     r.regIndex());
}

/** The operand fields an instruction kind is allowed to populate. */
struct FieldSpec
{
    bool dst, src, addr, count;
};

FieldSpec
fieldSpec(InstKind k)
{
    switch (k) {
      case InstKind::Assign: return {true, true, false, false};
      case InstKind::Load: return {true, false, true, false};
      case InstKind::Store: return {false, true, true, false};
      case InstKind::StreamIn:
      case InstKind::StreamOut: return {false, false, true, true};
      case InstKind::VecOp: return {true, true, false, true};
      default: return {false, false, false, false};
    }
}

/** Does this kind carry a branch/call label in Inst::target? */
bool
needsLabel(InstKind k)
{
    return k == InstKind::Jump || k == InstKind::CondJump ||
           k == InstKind::JumpStream;
}

/**
 * Check every register node of @p e: index in range for its file, and
 * no virtual registers at or after the register-assignment stage.
 * @p what names the operand field for the diagnostic.
 */
void
checkRegs(const ExprPtr &e, const rtl::MachineTraits &traits,
          const VerifyOptions &opts, const rtl::Block &b,
          const Inst &inst, const char *what, const rtl::Function &fn,
          VerifyReport &out)
{
    if (!e)
        return;
    bool noVirtual = opts.stage == Stage::PostRegalloc ||
                     opts.stage == Stage::PostLower;
    rtl::forEachNode(e, [&](const Expr &n) {
        if (n.kind() != Expr::Kind::Reg)
            return;
        int idx = n.regIndex();
        bool bad = false;
        switch (n.regFile()) {
          case RegFile::Int:
            bad = idx < 0 || idx >= traits.numIntRegs;
            break;
          case RegFile::Flt:
            bad = idx < 0 || idx >= traits.numFltRegs;
            break;
          case RegFile::CC:
            bad = idx != 0 && idx != 1;
            break;
          case RegFile::VInt:
          case RegFile::VFlt:
            bad = idx < 0;
            if (!bad && noVirtual) {
                Violation &v = addViolation(
                    out, "virtual-reg-after-regalloc", fn);
                locate(v, b, inst);
                v.invariant = regName(n);
                v.detail = strFormat(
                    "virtual register in %s operand survives register "
                    "assignment", what);
            }
            break;
        }
        if (bad) {
            Violation &v = addViolation(out, "bad-operand", fn);
            locate(v, b, inst);
            v.invariant = regName(n);
            v.detail = strFormat("register index out of range in %s "
                                 "operand", what);
        }
    });
}

void
badOperand(VerifyReport &out, const rtl::Function &fn,
           const rtl::Block &b, const Inst &inst, std::string detail)
{
    Violation &v = addViolation(out, "bad-operand", fn);
    locate(v, b, inst);
    v.detail = std::move(detail);
}

/** Kind-specific operand arity/shape checks for one instruction. */
void
checkInstOperands(const Inst &inst, const rtl::MachineTraits &traits,
                  const VerifyOptions &opts, const rtl::Block &b,
                  const rtl::Function &fn, const rtl::Program *prog,
                  VerifyReport &out)
{
    const FieldSpec spec = fieldSpec(inst.kind);
    if (spec.dst && !inst.dst)
        badOperand(out, fn, b, inst, "missing destination operand");
    if (spec.src && !inst.src)
        badOperand(out, fn, b, inst, "missing source operand");
    if (spec.addr && !inst.addr)
        badOperand(out, fn, b, inst, "missing address operand");
    if (inst.dst && !inst.dst->isReg())
        badOperand(out, fn, b, inst,
                   "destination is not a register: " + inst.dst->str());

    // The Mem-node invariant: all memory traffic is a Load or Store
    // instruction; Mem must not appear in any expression operand
    // (Load/Store address expressions included — an embedded Mem
    // would be a second, invisible memory access).
    for (const ExprPtr &e : {inst.dst, inst.src, inst.addr, inst.count,
                             inst.vecSrc2}) {
        if (e && rtl::containsMem(e)) {
            Violation &v =
                addViolation(out, "mem-outside-loadstore", fn);
            locate(v, b, inst);
            v.detail = "Mem node in expression operand: " + e->str();
        }
    }

    switch (inst.kind) {
      case InstKind::Assign:
        if (inst.dst && inst.dst->isReg() &&
                inst.dst->regFile() == RegFile::CC) {
            // A CC write is a compare: the machine instruction
            // computes a relation. Allow a constant source too (a
            // compare constant-folded by the optimizer and awaiting
            // branch folding).
            bool relational =
                inst.src &&
                ((inst.src->kind() == Expr::Kind::Bin &&
                  rtl::isRelationalOp(inst.src->op())) ||
                 inst.src->isConst());
            if (!relational) {
                Violation &v = addViolation(out, "bad-cc-write", fn);
                locate(v, b, inst);
                v.invariant = strFormat("cc%d", inst.dst->regIndex());
                v.detail = "condition-code destination with "
                           "non-relational source: " +
                           (inst.src ? inst.src->str()
                                     : std::string("<null>"));
            }
        }
        break;
      case InstKind::Load:
        if (inst.dst && inst.dst->isReg() &&
                inst.dst->regFile() == RegFile::CC)
            badOperand(out, fn, b, inst,
                       "load into condition-code register");
        break;
      case InstKind::StreamIn:
      case InstKind::StreamOut:
      case InstKind::StreamStop:
      case InstKind::JumpStream:
      case InstKind::VecOp:
        if (!traits.hasStreams)
            badOperand(out, fn, b, inst,
                       "stream instruction on a target without "
                       "stream hardware");
        if (inst.kind != InstKind::VecOp &&
                (inst.fifo != 0 && inst.fifo != 1))
            badOperand(out, fn, b, inst,
                       strFormat("FIFO index %d out of range",
                                 inst.fifo));
        if (inst.kind == InstKind::VecOp) {
            if (inst.dst && inst.dst->isReg() &&
                    !isDataFifoReg(*inst.dst))
                badOperand(out, fn, b, inst,
                           "vector destination is not an output-FIFO "
                           "register");
            if (!inst.src || !inst.src->isReg() ||
                    !isDataFifoReg(*inst.src))
                badOperand(out, fn, b, inst,
                           "vector source is not an input-FIFO "
                           "register");
            if (!inst.count)
                badOperand(out, fn, b, inst,
                           "vector operation without element count");
            if (inst.vecSrc2 && !inst.vecSrc2->isReg())
                badOperand(out, fn, b, inst,
                           "second vector operand is not a register");
        }
        break;
      case InstKind::Call:
        if (inst.target.empty()) {
            badOperand(out, fn, b, inst, "call without a callee name");
        } else if (prog && !prog->findFunction(inst.target)) {
            Violation &v =
                addViolation(out, "call-target-unknown", fn);
            locate(v, b, inst);
            v.invariant = inst.target;
            v.detail = "no function named '" + inst.target + "'";
        }
        break;
      default:
        break;
    }

    checkRegs(inst.dst, traits, opts, b, inst, "destination", fn, out);
    checkRegs(inst.src, traits, opts, b, inst, "source", fn, out);
    checkRegs(inst.addr, traits, opts, b, inst, "address", fn, out);
    checkRegs(inst.count, traits, opts, b, inst, "count", fn, out);
    checkRegs(inst.vecSrc2, traits, opts, b, inst, "vector-src2", fn,
              out);
    for (const ExprPtr &e : inst.extraUses)
        checkRegs(e, traits, opts, b, inst, "implicit-use", fn, out);
}

} // anonymous namespace

namespace detail {

bool
checkStructure(rtl::Function &fn, const rtl::MachineTraits &traits,
               const VerifyOptions &opts, const rtl::Program *prog,
               VerifyReport &out)
{
    bool labelsOk = true;
    const auto &blocks = fn.blocks();
    for (size_t bi = 0; bi < blocks.size(); ++bi) {
        const rtl::Block &b = *blocks[bi];
        for (size_t i = 0; i < b.insts.size(); ++i) {
            const Inst &inst = b.insts[i];
            checkInstOperands(inst, traits, opts, b, fn, prog, out);

            if (inst.isTerminator() && i + 1 != b.insts.size()) {
                Violation &v =
                    addViolation(out, "terminator-mid-block", fn);
                locate(v, b, inst);
                v.detail = strFormat(
                    "%d instruction(s) after the terminator are "
                    "unreachable",
                    static_cast<int>(b.insts.size() - i - 1));
            }
            if (needsLabel(inst.kind)) {
                if (inst.target.empty() ||
                        !fn.findBlock(inst.target)) {
                    Violation &v =
                        addViolation(out, "branch-target-unknown", fn);
                    locate(v, b, inst);
                    v.invariant = inst.target;
                    v.detail =
                        "no block labelled '" + inst.target + "'";
                    labelsOk = false;
                }
            }
        }

        // Layout order is meaningful: a block whose last instruction
        // can fall through needs a next block to fall into.
        bool fallsThrough = true;
        if (const Inst *t = b.terminator())
            fallsThrough = t->kind == InstKind::CondJump ||
                           t->kind == InstKind::JumpStream;
        if (fallsThrough && bi + 1 == blocks.size()) {
            Violation &v =
                addViolation(out, "fallthrough-off-end", fn);
            if (b.insts.empty())
                v.block = b.label();
            else
                locate(v, b, b.insts.back());
            v.detail = "last block of the function can fall through "
                       "off the end";
        }
    }

    if (!labelsOk)
        return false;

    // CFG-dependent checks. recomputeCfg is safe now that every
    // branch target is known to resolve.
    fn.recomputeCfg();

    // Def-before-use: a VIRTUAL register live into the entry block
    // has a use along some path that no definition reaches. Physical
    // registers are exempt (arguments and the stack pointer are
    // live-in by convention); CC consumption is covered by the queue
    // discipline checks.
    if (opts.stage != Stage::PostRegalloc &&
            opts.stage != Stage::PostLower && fn.entry()) {
        cfg::Liveness live(fn, traits);
        std::vector<cfg::RegKey> bad;
        live.forEachLiveIn(fn.entry(), [&](const cfg::RegKey &k) {
            if (k.file == RegFile::VInt || k.file == RegFile::VFlt)
                bad.push_back(k);
        });
        // Deterministic order for golden tests.
        std::sort(bad.begin(), bad.end(),
                  [](const cfg::RegKey &a, const cfg::RegKey &b2) {
                      if (a.file != b2.file)
                          return a.file < b2.file;
                      return a.index < b2.index;
                  });
        for (const cfg::RegKey &k : bad) {
            Violation &v = addViolation(out, "use-before-def", fn);
            v.block = fn.entry()->label();
            v.invariant = strFormat("%s%d", rtl::regFilePrefix(k.file),
                                    k.index);
            v.detail = "virtual register is live into the entry "
                       "block: some use is reached by no definition";
        }
    }
    return true;
}

} // namespace detail

VerifyReport
verifyFunction(rtl::Function &fn, const rtl::MachineTraits &traits,
               const VerifyOptions &opts, const rtl::Program *prog)
{
    VerifyReport out;
    out.pass = opts.pass;
    out.stage = opts.stage;
    bool cfgOk = detail::checkStructure(fn, traits, opts, prog, out);
    if (cfgOk && traits.isWM())
        detail::checkQueueDiscipline(fn, traits, opts, out);
    return out;
}

VerifyReport
verifyProgram(rtl::Program &prog, const rtl::MachineTraits &traits,
              const VerifyOptions &opts)
{
    VerifyReport out;
    out.pass = opts.pass;
    out.stage = opts.stage;
    for (auto &fn : prog.functions()) {
        VerifyReport one = verifyFunction(*fn, traits, opts, &prog);
        for (Violation &v : one.violations)
            out.violations.push_back(std::move(v));
    }
    return out;
}

} // namespace wmstream::verify
