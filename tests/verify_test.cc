/**
 * @file
 * Tests for the IR verifier (src/verify): one deliberately-malformed
 * RTL program per invariant class, each asserting its stable reason
 * code; driver-level checkpoint plumbing; the --inject-verifier-bug
 * self-test; and the wmfuzz third-oracle integration.
 */

#include <gtest/gtest.h>

#include "driver/compiler.h"
#include "fuzz/campaign.h"
#include "opt/passes.h"
#include "rtl/machine.h"
#include "verify/verify.h"

using namespace wmstream;
using namespace wmstream::rtl;

namespace {

/** The paper's dot product: two input streams, one reduction. */
const char kDotProduct[] = R"(
int n = 64;
double a[64];
double b[64];

int main(void)
{
    int i;
    double s;
    for (i = 0; i < n; i++) {
        a[i] = 0.25 + (i & 31) * 0.03125;
        b[i] = 1.5 - (i & 7) * 0.125;
    }
    s = 0.0;
    for (i = 0; i < n; i++)
        s = s + a[i] * b[i];
    return s;
}
)";

bool
hasReason(const verify::VerifyReport &rep, const std::string &reason)
{
    for (const verify::Violation &v : rep.violations)
        if (v.reason == reason)
            return true;
    return false;
}

bool
anyReportHasReason(const driver::CompileResult &cr,
                   const std::string &reason)
{
    for (const auto &rep : cr.verifyReports)
        if (hasReason(rep, reason))
            return true;
    return false;
}

verify::VerifyReport
check(Function &fn, verify::Stage stage)
{
    verify::VerifyOptions vo;
    vo.stage = stage;
    vo.pass = "test";
    return verify::verifyFunction(fn, wmTraits(), vo);
}

ExprPtr
vint(int idx)
{
    return makeReg(RegFile::VInt, idx, DataType::I64);
}

ExprPtr
cc0()
{
    return makeReg(RegFile::CC, 0, DataType::I64);
}

} // namespace

// ---- invariant class: structural validity ----

TEST(Verify, BadArity)
{
    Function fn("f");
    Block *b = fn.addBlock("entry");
    Inst broken;
    broken.kind = InstKind::Assign; // no dst, no src
    b->insts.push_back(std::move(broken));
    b->insts.push_back(makeReturn());

    auto rep = check(fn, verify::Stage::PostExpand);
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(hasReason(rep, "bad-operand"));
}

TEST(Verify, BranchTargetUnknown)
{
    Function fn("f");
    Block *b = fn.addBlock("entry");
    b->insts.push_back(makeJump("nowhere"));

    auto rep = check(fn, verify::Stage::PostExpand);
    EXPECT_TRUE(hasReason(rep, "branch-target-unknown"));
}

TEST(Verify, UseBeforeDef)
{
    Function fn("f");
    Block *b = fn.addBlock("entry");
    // vr5 is read but never written on any path.
    b->insts.push_back(
        makeAssign(vint(6), makeBin(Op::Add, vint(5), makeConst(1))));
    b->insts.push_back(makeReturn());

    auto rep = check(fn, verify::Stage::PostExpand);
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(hasReason(rep, "use-before-def"));
}

TEST(Verify, WellFormedFunctionIsClean)
{
    Function fn("f");
    Block *b = fn.addBlock("entry");
    b->insts.push_back(makeAssign(vint(2), makeConst(7)));
    b->insts.push_back(
        makeAssign(vint(3), makeBin(Op::Add, vint(2), makeConst(1))));
    b->insts.push_back(makeReturn());

    auto rep = check(fn, verify::Stage::PostExpand);
    EXPECT_TRUE(rep.ok()) << rep.str();
}

// ---- invariant class: FIFO balance ----

TEST(Verify, UnbalancedFifoPath)
{
    // A streamed loop that claims in:r0 (StreamIn in the preheader,
    // JumpStream latch) but never dequeues inside the body: zero pops
    // per iteration where exactly one is required.
    Function fn("f");
    Block *pre = fn.addBlock("pre");
    Block *loop = fn.addBlock("loop");
    Block *exit = fn.addBlock("exit");

    pre->insts.push_back(makeAssign(vint(2), makeConst(0)));
    pre->insts.push_back(makeStreamIn(UnitSide::Int, 0, makeConst(4096),
                                      makeConst(10), 8, DataType::I64));
    loop->insts.push_back(
        makeAssign(vint(2), makeBin(Op::Add, vint(2), makeConst(1))));
    loop->insts.push_back(makeJumpStream(UnitSide::Int, 0, "loop"));
    exit->insts.push_back(makeReturn());

    auto rep = check(fn, verify::Stage::PostOpt);
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(hasReason(rep, "fifo-pop-imbalance")) << rep.str();
}

TEST(Verify, ReorderedPops)
{
    // Two dequeues of the same FIFO inside one instruction: the pop
    // order is not defined by the program, so the value each operand
    // sees depends on evaluation order.
    Function fn("f");
    Block *b = fn.addBlock("entry");
    ExprPtr fifo = makeReg(RegFile::Int, 0, DataType::I64);
    b->insts.push_back(
        makeAssign(vint(4), makeBin(Op::Add, fifo, fifo)));
    b->insts.push_back(makeReturn());

    auto rep = check(fn, verify::Stage::PostOpt);
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(hasReason(rep, "ambiguous-pop-order")) << rep.str();
}

// ---- invariant class: CC discipline ----

TEST(Verify, CcOverProduction)
{
    // Two compares feed one branch: the second CC push is never
    // consumed and is still queued when the function returns.
    Function fn("f");
    Block *b = fn.addBlock("entry");
    Block *exit = fn.addBlock("exit");
    b->insts.push_back(makeAssign(cc0(), makeConst(1)));
    b->insts.push_back(makeAssign(cc0(), makeConst(0)));
    b->insts.push_back(makeCondJump(UnitSide::Int, true, "exit"));
    exit->insts.push_back(makeReturn());

    auto rep = check(fn, verify::Stage::PostOpt);
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(hasReason(rep, "cc-overproduction")) << rep.str();
}

TEST(Verify, CcUnderflow)
{
    // A branch with no compare before it pops an empty CC queue.
    Function fn("f");
    Block *b = fn.addBlock("entry");
    Block *exit = fn.addBlock("exit");
    b->insts.push_back(makeCondJump(UnitSide::Int, true, "exit"));
    exit->insts.push_back(makeReturn());

    auto rep = check(fn, verify::Stage::PostOpt);
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(hasReason(rep, "cc-underflow")) << rep.str();
}

// ---- invariant class: recurrence legality ----

TEST(Verify, BrokenRecurrenceShiftChain)
{
    // The chain metadata promises the shift vr4 := vr3 in the loop
    // header, but the header does not contain it.
    Function fn("f");
    Block *pre = fn.addBlock("pre");
    Block *header = fn.addBlock("header");
    Block *exit = fn.addBlock("exit");
    pre->insts.push_back(makeAssign(vint(3), makeConst(0)));
    header->insts.push_back(
        makeAssign(vint(3), makeBin(Op::Add, vint(3), makeConst(1))));
    header->insts.push_back(makeAssign(cc0(), makeConst(1)));
    header->insts.push_back(makeCondJump(UnitSide::Int, true, "header"));
    exit->insts.push_back(makeReturn());

    recurrence::RecurrenceChain chain;
    chain.function = "f";
    chain.header = "header";
    chain.preheader = "pre";
    chain.flt = false;
    chain.degree = 1;
    chain.chainRegs = {3, 4};

    auto rep = verify::verifyRecurrenceChains(fn, {chain}, "recurrence");
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(hasReason(rep, "recurrence-shift-mismatch"))
        << rep.str();
}

TEST(Verify, RecurrenceShiftCycle)
{
    // A chain register appearing at two distances is a cycle: the
    // shift would feed a value back into its own slot.
    Function fn("f");
    fn.addBlock("pre");
    fn.addBlock("header");

    recurrence::RecurrenceChain chain;
    chain.function = "f";
    chain.header = "header";
    chain.preheader = "pre";
    chain.degree = 1;
    chain.chainRegs = {3, 3};

    auto rep = verify::verifyRecurrenceChains(fn, {chain}, "recurrence");
    EXPECT_TRUE(hasReason(rep, "recurrence-shift-cycle")) << rep.str();
}

// ---- violation plumbing ----

TEST(Verify, SignatureIsProgramIndependent)
{
    Function fn("f");
    Block *b = fn.addBlock("entry");
    ExprPtr fifo = makeReg(RegFile::Int, 0, DataType::I64);
    b->insts.push_back(
        makeAssign(vint(4), makeBin(Op::Add, fifo, fifo)));
    b->insts.push_back(makeReturn());

    auto rep = check(fn, verify::Stage::PostOpt);
    ASSERT_FALSE(rep.ok());
    bool found = false;
    for (const verify::Violation &v : rep.violations)
        if (v.reason == "ambiguous-pop-order") {
            // reason@invariant only: no function, block, or
            // instruction id, so the same compiler bug collides
            // across different generated programs.
            EXPECT_EQ(v.signature(), "ambiguous-pop-order@in:r0");
            found = true;
        }
    EXPECT_TRUE(found);
}

// ---- pass-ordering regression ----

TEST(VerifyOpt, BranchOptThenDceCollectsOrphanCompare)
{
    // Branch optimization deletes a CondJump to the fallthrough
    // block, leaving its compare as an unconsumed CC enqueue. The
    // cleanup rounds run DCE after branchopt for exactly this case;
    // run the two passes in that order and let the verifier confirm
    // the CC queue balances. (With the reverse order — DCE first,
    // branchopt as the round's last step — the orphan compare
    // survives into final code as cc-overproduction.)
    Function fn("f");
    Block *a = fn.addBlock("a");
    Block *b = fn.addBlock("b");
    a->insts.push_back(makeAssign(cc0(), makeConst(1)));
    a->insts.push_back(makeCondJump(UnitSide::Int, true, "b"));
    b->insts.push_back(makeReturn());
    fn.recomputeCfg();

    opt::runBranchOpt(fn);
    opt::runDeadCodeElim(fn, wmTraits());

    auto rep = check(fn, verify::Stage::PostOpt);
    EXPECT_TRUE(rep.ok()) << rep.str();
    for (const auto &bp : fn.blocks())
        for (const Inst &inst : bp->insts)
            if (inst.kind == InstKind::Assign) {
                EXPECT_NE(inst.dst->regFile(), RegFile::CC);
            }
}

// ---- driver integration ----

TEST(VerifyDriver, CleanCompileUnderVerifyEach)
{
    driver::CompileOptions opts;
    opts.verify = driver::VerifyMode::Each;
    auto cr = driver::compileSource(kDotProduct, opts);
    ASSERT_TRUE(cr.ok);
    EXPECT_TRUE(cr.verifyClean()) << cr.verifyText();
    // expand + per-pass checkpoints + recurrence chains + lower-fifo.
    EXPECT_GT(cr.verifyCheckpoints, 5);
    // The dot product has no recurrence: that pass's checkpoint would
    // re-check the IR the cleanup checkpoint already passed.
    EXPECT_GE(cr.verifySkipped, 1);
}

TEST(VerifyDriver, ViolationNamesItsInstructionByBlockIndex)
{
    // "[fn.block#k]": k is the instruction's index in the block, so a
    // report names the right instruction even after passes that insert
    // or delete code. Break one instruction of a compiled function
    // that is neither first in its block nor in the entry block, where
    // the index and the function-wide ordinal differ.
    // --inject-verifier-bug's findings are loop- and function-scoped
    // and print no "#k", so the test breaks the instruction itself.
    auto cr = driver::compileSource(kDotProduct, {});
    ASSERT_TRUE(cr.ok);
    Function *fn = cr.program->findFunction("main");
    Block *target = nullptr;
    for (auto &b : fn->blocks())
        if (b.get() != fn->entry() && b->insts.size() >= 3)
            target = b.get();
    ASSERT_TRUE(target != nullptr);
    size_t k = target->insts.size() - 2;
    Inst broken;
    broken.kind = InstKind::Assign; // no dst, no src
    target->insts[k] = std::move(broken);

    auto rep = check(*fn, verify::Stage::PostLower);
    std::string where = "[main." + target->label() + "#";
    const verify::Violation *v = nullptr;
    for (const verify::Violation &x : rep.violations)
        if (x.reason == "bad-operand")
            v = &x;
    ASSERT_TRUE(v != nullptr) << rep.str();
    std::string line = v->str();
    size_t at = line.find(where);
    ASSERT_NE(at, std::string::npos) << line;
    size_t named = std::stoul(line.substr(at + where.size()));
    ASSERT_LT(named, target->insts.size()) << line;
    EXPECT_EQ(named, k) << line;
    EXPECT_TRUE(target->insts[named].kind == InstKind::Assign &&
                !target->insts[named].dst)
        << line;
}

TEST(VerifyDriver, FinalModeRunsOneProgramCheckpoint)
{
    driver::CompileOptions opts;
    opts.verify = driver::VerifyMode::Final;
    opts.recurrence = false; // no chain checkpoints
    auto cr = driver::compileSource(kDotProduct, opts);
    ASSERT_TRUE(cr.ok);
    EXPECT_TRUE(cr.verifyClean()) << cr.verifyText();
    EXPECT_EQ(cr.verifyCheckpoints, 1);
}

TEST(VerifyDriver, InjectedPopDropIsCaughtStatically)
{
    driver::CompileOptions opts;
    opts.verify = driver::VerifyMode::Each;
    opts.injectVerifierBug = true;
    auto cr = driver::compileSource(kDotProduct, opts);
    ASSERT_TRUE(cr.ok); // it compiles; the *verifier* must object
    EXPECT_FALSE(cr.verifyClean());
    EXPECT_TRUE(anyReportHasReason(cr, "fifo-pop-imbalance"))
        << cr.verifyText();
    // The violation is mirrored into the remarks stream with pass
    // provenance, joinable like any other remark.
    bool mirrored = false;
    for (const obs::Remark &r : cr.remarks.remarks())
        if (r.pass == "verify" && r.reason == "fifo-pop-imbalance")
            mirrored = true;
    EXPECT_TRUE(mirrored);
}

TEST(VerifyDriver, InjectedStreamUnderCountIsCaughtStatically)
{
    // The deadlock self-test miscompile (PR 4's dynamic-only bug):
    // the static linter now catches the count disagreement between
    // sibling streams at compile time.
    driver::CompileOptions opts;
    opts.verify = driver::VerifyMode::Each;
    opts.injectStreamCountBug = true;
    auto cr = driver::compileSource(kDotProduct, opts);
    ASSERT_TRUE(cr.ok);
    EXPECT_FALSE(cr.verifyClean());
    EXPECT_TRUE(anyReportHasReason(cr, "stream-count-mismatch"))
        << cr.verifyText();
}

TEST(VerifyDriver, VerifyOffCollectsNothing)
{
    driver::CompileOptions opts;
    opts.injectVerifierBug = true; // broken code, but nobody looks
    auto cr = driver::compileSource(kDotProduct, opts);
    ASSERT_TRUE(cr.ok);
    EXPECT_TRUE(cr.verifyClean());
    EXPECT_EQ(cr.verifyCheckpoints, 0);
}

// ---- wmfuzz third-oracle integration ----

TEST(VerifyFuzz, CampaignFlagsInjectedBugAsVerifyError)
{
    fuzz::CampaignOptions opts;
    opts.seed = 7;
    opts.maxPrograms = 40;
    opts.jobs = 4;
    opts.injectVerifierBug = true;
    opts.minimize = false;
    auto res = fuzz::runCampaign(opts);
    ASSERT_FALSE(res.divergences.empty());
    bool sawVerify = false;
    for (const auto &d : res.divergences) {
        if (d.kind != fuzz::DivergenceKind::VerifyError)
            continue;
        sawVerify = true;
        // Deduped by the program-independent violation signature.
        EXPECT_NE(d.signature.find("fifo-pop-imbalance"),
                  std::string::npos)
            << d.signature;
    }
    EXPECT_TRUE(sawVerify);
}

// ---- whole-program static FIFO analysis (fifodepth.cc) ----

namespace {

/** The paper's Figure 7 kernel, embedded so the test needs no file
 *  access: all three arrays stream, every queue's inferred minimum
 *  must fit the default depth. */
const char kFig7[] = R"(
int n = 100;
double a[100];
double b[100];
double c[100];

int main(void)
{
    int i;
    for (i = 0; i < n; i++) {
        a[i] = 1.0 + i * 0.5;
        b[i] = 2.0 + i * 0.25;
    }
    for (i = 0; i < n; i++)
        c[i] = a[i] + b[i];
    return c[99];
}
)";

bool
findingsHaveReason(const verify::FifoRequirements &fr,
                   const std::string &reason)
{
    return hasReason(fr.findings, reason);
}

} // namespace

TEST(FifoDepth, Fig7IsDeadlockFreeWithinDefaultDepth)
{
    driver::CompileOptions opts;
    auto cr = driver::compileSource(kFig7, opts);
    ASSERT_TRUE(cr.ok) << cr.diagnostics;
    auto fr = verify::analyzeFifoRequirements(*cr.program,
                                              cr.traits, 8);
    ASSERT_TRUE(fr.analyzed);
    EXPECT_TRUE(fr.deadlockFree) << fr.findings.str();
    EXPECT_EQ(fr.verdict, "deadlock-free");
    EXPECT_TRUE(fr.depthSatisfied());
    EXPECT_LE(fr.minDepth, 8);
    EXPECT_GE(fr.minDepth, 1);
    // The three streamed arrays claim queues; every claimed queue is
    // SCU-throttled and needs exactly depth 1.
    bool sawStreamed = false;
    for (const auto &q : fr.queues)
        if (q.streamed) {
            sawStreamed = true;
            EXPECT_EQ(q.minDepth, 1) << q.name;
        }
    EXPECT_TRUE(sawStreamed);
}

TEST(FifoDepth, DriverWiresResultAndScalarIsNotAnalyzed)
{
    driver::CompileOptions opts;
    opts.inferFifoDepth = true;
    opts.configuredFifoDepth = 8;
    auto cr = driver::compileSource(kFig7, opts);
    ASSERT_TRUE(cr.ok);
    EXPECT_TRUE(cr.fifoRequirements.analyzed);
    EXPECT_EQ(cr.fifoRequirements.verdict, "deadlock-free");
    EXPECT_TRUE(cr.verifyClean()); // clean verdict adds no reports

    driver::CompileOptions scalar;
    scalar.target = rtl::MachineKind::Scalar;
    scalar.inferFifoDepth = true;
    auto sr = driver::compileSource(kFig7, scalar);
    ASSERT_TRUE(sr.ok);
    EXPECT_FALSE(sr.fifoRequirements.analyzed);
    EXPECT_EQ(sr.fifoRequirements.verdict, "not-analyzed");
}

TEST(FifoDepth, StarvedPopAcrossLoopIsNotDeadlockFree)
{
    // Cross-loop deadlock, invariant class static-starved-pop: the
    // consumer loop pops in:r0 every iteration but no load or stream
    // ever feeds that queue — the IEU blocks forever on the first
    // dequeue. Occupancy is provably [0,0] at the pop on every path
    // around the loop.
    Program prog;
    Function *fn = prog.addFunction("f");
    Block *entry = fn->addBlock("entry");
    Block *header = fn->addBlock("header");
    Block *exitB = fn->addBlock("exit");
    ExprPtr fifo = makeReg(RegFile::Int, 0, DataType::I64);

    entry->insts.push_back(makeJump("header"));
    header->insts.push_back(makeAssign(makeReg(RegFile::Int, 2, DataType::I64), fifo)); // starved pop
    header->insts.push_back(
        makeAssign(cc0(), makeBin(Op::Lt, makeReg(RegFile::Int, 2, DataType::I64), makeConst(8))));
    header->insts.push_back(
        makeCondJump(UnitSide::Int, true, "header"));
    exitB->insts.push_back(makeReturn());
    fn->recomputeCfg();

    auto fr = verify::analyzeFifoRequirements(prog, wmTraits(), 8);
    ASSERT_TRUE(fr.analyzed);
    EXPECT_FALSE(fr.deadlockFree);
    EXPECT_EQ(fr.verdict, "not-proven");
    EXPECT_TRUE(findingsHaveReason(fr, "static-starved-pop"))
        << fr.findings.str();
}

TEST(FifoDepth, DisciplineViolationYieldsStaticUnproven)
{
    // Invariant class static-unproven: a streamed loop that claims
    // in:r0 but never pops it breaks queue discipline, so
    // deadlock-freedom cannot be proven (this exact shape wedges the
    // SCU against a full FIFO at runtime).
    Program prog;
    Function *fn = prog.addFunction("f");
    Block *pre = fn->addBlock("pre");
    Block *loop = fn->addBlock("loop");
    Block *exitB = fn->addBlock("exit");

    pre->insts.push_back(makeAssign(makeReg(RegFile::Int, 2, DataType::I64), makeConst(0)));
    pre->insts.push_back(
        makeStreamIn(UnitSide::Int, 0, makeConst(4096),
                     makeConst(10), 8, DataType::I64));
    loop->insts.push_back(
        makeAssign(makeReg(RegFile::Int, 2, DataType::I64), makeBin(Op::Add, makeReg(RegFile::Int, 2, DataType::I64), makeConst(1))));
    loop->insts.push_back(makeJumpStream(UnitSide::Int, 0, "loop"));
    exitB->insts.push_back(makeReturn());
    fn->recomputeCfg();

    auto fr = verify::analyzeFifoRequirements(prog, wmTraits(), 8);
    ASSERT_TRUE(fr.analyzed);
    EXPECT_FALSE(fr.deadlockFree);
    EXPECT_TRUE(findingsHaveReason(fr, "static-unproven"))
        << fr.findings.str();
    // The dedup key carries the underlying discipline signature so
    // wmfuzz folds identical bugs across programs.
    bool carried = false;
    for (const auto &v : fr.findings.violations)
        if (v.reason == "static-unproven" &&
            v.invariant.find("fifo-pop-imbalance") != std::string::npos)
            carried = true;
    EXPECT_TRUE(carried) << fr.findings.str();
}

TEST(FifoDepth, PushBurstBeyondConfiguredDepthIsFlagged)
{
    // Invariant class fifo-depth-exceeded: five values queued on
    // out:r0 before the first store drains them. Discipline is clean
    // (balanced, nothing leaks), but a depth-2 FIFO provably blocks
    // the producer on the third push.
    Program prog;
    Function *fn = prog.addFunction("f");
    Block *b = fn->addBlock("entry");
    ExprPtr outFifo = makeReg(RegFile::Int, 0, DataType::I64);
    const int kPushes = 5;
    for (int i = 0; i < kPushes; ++i)
        b->insts.push_back(makeAssign(outFifo, makeConst(i)));
    for (int i = 0; i < kPushes; ++i)
        b->insts.push_back(makeStore(makeConst(0x2000 + 8 * i),
                                     outFifo, DataType::I64));
    b->insts.push_back(makeReturn());
    fn->recomputeCfg();

    auto shallow = verify::analyzeFifoRequirements(prog, wmTraits(), 2);
    ASSERT_TRUE(shallow.analyzed);
    EXPECT_EQ(shallow.minDepth, kPushes);
    EXPECT_FALSE(shallow.depthSatisfied());
    EXPECT_FALSE(shallow.deadlockFree);
    EXPECT_TRUE(findingsHaveReason(shallow, "fifo-depth-exceeded"))
        << shallow.findings.str();

    // The same program is provably fine once the FIFO is deep enough.
    auto deep = verify::analyzeFifoRequirements(prog, wmTraits(), 8);
    EXPECT_TRUE(deep.deadlockFree) << deep.findings.str();
    EXPECT_EQ(deep.minDepth, kPushes);
}

TEST(FifoDepth, DeepBurstIsDepthExceededNotStarved)
{
    // A burst deeper than any small analysis cap: every push is
    // drained by a later store, so discipline is clean and the
    // requirement is the burst length. A count that saturated and
    // then kept decrementing would hit zero before the last stores
    // and report them as starved pops (a compiler bug, exit 70).
    for (int pushes : {65, 70}) {
        Program prog;
        Function *fn = prog.addFunction("f");
        Block *b = fn->addBlock("entry");
        ExprPtr outFifo = makeReg(RegFile::Int, 0, DataType::I64);
        for (int i = 0; i < pushes; ++i)
            b->insts.push_back(makeAssign(outFifo, makeConst(i)));
        for (int i = 0; i < pushes; ++i)
            b->insts.push_back(makeStore(makeConst(0x2000 + 8 * i),
                                         outFifo, DataType::I64));
        b->insts.push_back(makeReturn());
        fn->recomputeCfg();

        verify::VerifyOptions vo;
        vo.stage = verify::Stage::PostLower;
        EXPECT_TRUE(verify::verifyFunction(*fn, wmTraits(), vo).ok());

        auto fr = verify::analyzeFifoRequirements(prog, wmTraits(), 8);
        EXPECT_EQ(fr.verdict, "not-proven");
        EXPECT_EQ(fr.minDepth, pushes);
        EXPECT_TRUE(findingsHaveReason(fr, "fifo-depth-exceeded"))
            << fr.findings.str();
        EXPECT_FALSE(findingsHaveReason(fr, "static-starved-pop"))
            << fr.findings.str();
        ASSERT_EQ(fr.queues.size(), 1u);
        EXPECT_TRUE(fr.queues[0].bounded);
    }
}

TEST(FifoDepth, InjectedStreamUnderCountIsStaticallyNotProven)
{
    // The wmfuzz agreement oracle's static half: the planted
    // stream-count miscompile must be flagged without any verifier
    // checkpoint (fuzz configs compile it with verify off).
    driver::CompileOptions opts;
    opts.injectStreamCountBug = true;
    auto cr = driver::compileSource(kDotProduct, opts);
    ASSERT_TRUE(cr.ok);
    EXPECT_TRUE(cr.verifyClean()); // nobody ran the verifier...
    auto fr = verify::analyzeFifoRequirements(*cr.program,
                                              cr.traits, 8);
    ASSERT_TRUE(fr.analyzed);
    EXPECT_FALSE(fr.deadlockFree); // ...yet the analysis objects
    EXPECT_TRUE(findingsHaveReason(fr, "static-unproven"))
        << fr.findings.str();
}

TEST(FifoDepth, DepthExceededIsConfigErrorNotVerifierReport)
{
    // fifo-depth-exceeded stays out of verifyReports (wmc reports it
    // against --fifo-depth and exits 1, not 70); the verdict and the
    // finding itself remain in fifoRequirements.
    driver::CompileOptions opts;
    opts.inferFifoDepth = true;
    opts.configuredFifoDepth = 1;
    auto cr = driver::compileSource(kDotProduct, opts);
    ASSERT_TRUE(cr.ok);
    ASSERT_TRUE(cr.fifoRequirements.analyzed);
    if (!cr.fifoRequirements.depthSatisfied()) {
        EXPECT_TRUE(cr.verifyClean()) << cr.verifyText();
        EXPECT_TRUE(findingsHaveReason(cr.fifoRequirements,
                                       "fifo-depth-exceeded"));
    }
}

TEST(FifoDepthFuzz, CampaignAgreesWithWatchdogAndCountsVerdicts)
{
    // 60-program agreement sweep: no static_fifo_break may surface
    // (a statically-proven-free program that still deadlocked, or one
    // that failed at its inferred minimum FIFO depth), and the static
    // verdict tallies must cover every WM check.
    fuzz::CampaignOptions opts;
    opts.seed = 11;
    opts.maxPrograms = 60;
    opts.jobs = 4;
    opts.minimize = false;
    auto res = fuzz::runCampaign(opts);
    for (const auto &d : res.divergences)
        EXPECT_NE(d.kind, fuzz::DivergenceKind::StaticFifoBreak)
            << d.signature << "\n" << d.detail;
    EXPECT_GT(res.staticDeadlockFree, 0);
    EXPECT_EQ(res.staticFlagged, 0);
    EXPECT_GT(res.staticDepthResims, 0);
    EXPECT_LE(res.staticDepthResims, res.staticDeadlockFree);
}

TEST(FifoDepthFuzz, InjectedDeadlockBugIsFlaggedStatically)
{
    // The planted under-count must be caught by the static analysis
    // on every configuration where it bites — the deduped deadlock
    // divergences stay (the watchdog self-test needs them), but none
    // may carry a clean static verdict (that would be the
    // static_fifo_break agreement failure).
    fuzz::CampaignOptions opts;
    opts.seed = 7;
    opts.maxPrograms = 10;
    opts.jobs = 4;
    opts.injectStreamCountBug = true;
    opts.minimize = false;
    auto res = fuzz::runCampaign(opts);
    EXPECT_GT(res.staticFlagged, 0);
    bool sawDeadlock = false;
    for (const auto &d : res.divergences) {
        EXPECT_NE(d.kind, fuzz::DivergenceKind::StaticFifoBreak)
            << d.signature << "\n" << d.detail;
        if (d.kind == fuzz::DivergenceKind::Deadlock)
            sawDeadlock = true;
    }
    EXPECT_TRUE(sawDeadlock);
}
