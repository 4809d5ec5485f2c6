/**
 * @file
 * Tests for the loop-level passes: LICM (including the unaliased-global
 * load hoist), induction variables, strength reduction, branch
 * anticipation, and the loop sweep that drives LICM, strength
 * reduction, recurrence and streaming over every loop of a function.
 * These are driven through compiled mini-C so the shapes match what the
 * passes actually see.
 */

#include <gtest/gtest.h>

#include "cfg/dominators.h"
#include "cfg/loops.h"
#include "driver/compiler.h"
#include "expand/expander.h"
#include "frontend/parser.h"
#include "interp/interp.h"
#include "m68k/printer.h"
#include "opt/indvars.h"
#include "opt/legal.h"
#include "opt/passes.h"
#include "timing/scalar_sim.h"
#include "wmsim/sim.h"

using namespace wmstream;
using namespace wmstream::rtl;

namespace {

/** Expand source for a target without running any optimization. */
std::unique_ptr<Program>
expandOnly(const std::string &src, MachineKind kind)
{
    DiagEngine diag;
    auto unit = frontend::parseAndCheck(src, diag);
    EXPECT_TRUE(unit != nullptr) << diag.str();
    auto prog = std::make_unique<Program>();
    obs::RemarkCollector remarks;
    expand::expandUnit(*unit, kind == MachineKind::WM ? wmTraits()
                                                      : scalarTraits(),
                       *prog, remarks);
    return prog;
}

const char *kSumLoop = R"(
int n = 100;
int a[100];
int main(void) {
    int i, s;
    s = 0;
    for (i = 0; i < n; i++)
        s = s + a[i];
    return s;
}
)";

/** Interpreter result of @p src. */
int64_t
oracle(const std::string &src)
{
    DiagEngine diag;
    auto unit = frontend::parseAndCheck(src, diag);
    EXPECT_TRUE(unit != nullptr) << diag.str();
    auto res = interp::Interpreter(*unit).run();
    EXPECT_TRUE(res.ok) << res.error;
    return res.returnValue;
}

/**
 * One function with an init loop and @p loops identical streamable
 * kernel loops over global double arrays (the shape of perfbench's
 * bigtu workload).
 */
std::string
bigTuSource(int loops)
{
    std::string src = "double a[256];\ndouble b[256];\ndouble c[256];\n"
                      "int main() {\n  int i;\n"
                      "  for (i = 0; i < 256; i = i + 1) {\n"
                      "    a[i] = i; b[i] = 0.5; c[i] = 1.0;\n  }\n";
    for (int l = 0; l < loops; ++l)
        src += "  for (i = 0; i < 256; i = i + 1) {\n"
               "    c[i] = c[i] + a[i] * b[i];\n  }\n";
    return src + "  return c[128] + c[255];\n}\n";
}

/** The loops of @p fn in layout order of their headers. */
std::vector<const cfg::Loop *>
loopsInLayoutOrder(const cfg::LoopInfo &li, const Function &fn)
{
    std::vector<const cfg::Loop *> out;
    for (const auto &b : fn.blocks())
        for (const cfg::Loop &loop : li.loops())
            if (loop.header == b.get())
                out.push_back(&loop);
    return out;
}

/** True if every memory address in @p loop is in pointer form. */
bool
strengthReduced(const cfg::Loop &loop)
{
    for (Block *b : loop.blocks)
        for (const Inst &inst : b->insts) {
            if (inst.kind != InstKind::Load && inst.kind != InstKind::Store)
                continue;
            bool simple = inst.addr->isReg() ||
                          (inst.addr->kind() == Expr::Kind::Bin &&
                           inst.addr->op() == Op::Add &&
                           inst.addr->lhs()->isReg() &&
                           inst.addr->rhs()->isConst());
            if (!simple)
                return false;
        }
    return true;
}

} // namespace

TEST(Licm, HoistsInvariantComputation)
{
    auto prog = expandOnly(kSumLoop, MachineKind::WM);
    auto traits = wmTraits();
    Function *fn = prog->findFunction("main");
    opt::runLegalize(*fn, traits);
    int hoisted = opt::runLoopInvariantCodeMotion(*fn, traits, prog.get());
    EXPECT_GT(hoisted, 0);
}

TEST(Licm, HoistsLoadOfUnaliasedGlobalBound)
{
    // `n` is a scalar global whose address is never taken: its load in
    // the loop test must be hoisted to the preheader.
    driver::CompileOptions opts;
    opts.streaming = false;
    opts.recurrence = false;
    auto cr = driver::compileSource(kSumLoop, opts);
    ASSERT_TRUE(cr.ok);
    Function *fn = cr.program->findFunction("main");

    // Find the loop and check no load of `n` remains inside it.
    fn->recomputeCfg();
    cfg::DominatorTree dt(*fn);
    cfg::LoopInfo li(*fn, dt);
    ASSERT_GE(li.loops().size(), 1u);
    for (auto &loop : li.loops()) {
        for (Block *b : loop.blocks) {
            for (const Inst &inst : b->insts) {
                if (inst.kind != InstKind::Load)
                    continue;
                // address must not be the symbol n (directly)
                bool loadsN = inst.addr->isSym() &&
                              inst.addr->symbol() == "n";
                EXPECT_FALSE(loadsN) << "bound load left in loop";
            }
        }
    }
}

TEST(Licm, DoesNotHoistLoadOfStoredGlobal)
{
    // g is stored inside the loop: its load cannot be hoisted.
    const char *src = R"(
int g = 5;
int main(void) {
    int i, s;
    s = 0;
    for (i = 0; i < 10; i++) {
        s = s + g;
        g = g + 1;
    }
    return s;
}
)";
    driver::CompileOptions opts;
    opts.streaming = false;
    auto cr = driver::compileSource(src, opts);
    ASSERT_TRUE(cr.ok);
    // correctness is checked end-to-end by the differential tests; here
    // we just assert the loop still loads g each iteration
    Function *fn = cr.program->findFunction("main");
    fn->recomputeCfg();
    cfg::DominatorTree dt(*fn);
    cfg::LoopInfo li(*fn, dt);
    bool loadInLoop = false;
    for (auto &loop : li.loops())
        for (Block *b : loop.blocks)
            for (const Inst &inst : b->insts)
                if (inst.kind == InstKind::Load)
                    loadInLoop = true;
    EXPECT_TRUE(loadInLoop);
}

TEST(IndVars, DetectsBasicIv)
{
    auto prog = expandOnly(kSumLoop, MachineKind::WM);
    Function *fn = prog->findFunction("main");
    auto traits = wmTraits();
    opt::runLegalize(*fn, traits);
    opt::runCleanupPipeline(*fn, traits, prog.get());

    fn->recomputeCfg();
    cfg::DominatorTree dt(*fn);
    cfg::LoopInfo li(*fn, dt);
    ASSERT_GE(li.loops().size(), 1u);
    // The innermost (only) loop has exactly one basic IV with step 1.
    cfg::DefUseTable du(*fn, traits);
    opt::IndVarAnalysis ivs(*fn, li.loops()[0], dt, du, traits);
    ASSERT_GE(ivs.basicIVs().size(), 1u);
    EXPECT_EQ(ivs.basicIVs()[0].step, 1);
}

TEST(IndVars, LinearizesArrayAddress)
{
    auto prog = expandOnly(kSumLoop, MachineKind::WM);
    Function *fn = prog->findFunction("main");
    auto traits = wmTraits();
    opt::runLegalize(*fn, traits);
    opt::runCleanupPipeline(*fn, traits, prog.get());

    fn->recomputeCfg();
    cfg::DominatorTree dt(*fn);
    cfg::LoopInfo li(*fn, dt);
    cfg::Loop &loop = li.loops()[0];
    cfg::DefUseTable du(*fn, traits);
    opt::IndVarAnalysis ivs(*fn, loop, dt, du, traits);
    ASSERT_FALSE(ivs.basicIVs().empty());

    bool checked = false;
    for (Block *b : loop.blocks) {
        for (size_t i = 0; i < b->insts.size(); ++i) {
            const Inst &inst = b->insts[i];
            if (inst.kind != InstKind::Load)
                continue;
            auto lin = ivs.linearize(inst.addr, ivs.basicIVs()[0],
                                     {b, i});
            ASSERT_TRUE(lin.valid);
            EXPECT_EQ(lin.coeff, 8); // the paper's cee for 8-byte elems
            EXPECT_EQ(lin.baseKind, opt::LinForm::Base::Sym);
            EXPECT_EQ(lin.sym, "a");
            checked = true;
        }
    }
    EXPECT_TRUE(checked);
}

TEST(StrengthReduce, RewritesToPointerForm)
{
    driver::CompileOptions opts;
    opts.target = MachineKind::Scalar;
    auto cr = driver::compileSource(kSumLoop, opts);
    ASSERT_TRUE(cr.ok);
    Function *fn = cr.program->findFunction("main");
    fn->recomputeCfg();
    cfg::DominatorTree dt(*fn);
    cfg::LoopInfo li(*fn, dt);
    // All in-loop loads use a plain register (walking pointer) or
    // register+constant address after strength reduction.
    for (auto &loop : li.loops()) {
        for (Block *b : loop.blocks) {
            for (const Inst &inst : b->insts) {
                if (inst.kind != InstKind::Load)
                    continue;
                bool simple =
                    inst.addr->isReg() ||
                    (inst.addr->kind() == Expr::Kind::Bin &&
                     inst.addr->op() == Op::Add &&
                     inst.addr->lhs()->isReg() &&
                     inst.addr->rhs()->isConst());
                EXPECT_TRUE(simple) << inst.addr->str();
            }
        }
    }
}

TEST(StrengthReduce, TakesGroupsInBaseTextOrder)
{
    // p and q are pointers loaded from globals, so their partitions
    // are keyed by the registers they were loaded into: reg:vr6 for p
    // and reg:vr11 for q. Groups are rewritten in the order of their
    // base text, so "vr11" (q) comes before "vr6" (p); in numeric
    // order p's pointer would be set up first.
    const char *src = R"(
int n = 16;
int ga[16];
int gb[16];
int *gp;
int *gq;
int fill(void) {
    int i;
    gp = ga;
    gq = gb;
    for (i = 0; i < n; i++) {
        ga[i] = i;
        gb[i] = 3 * i;
    }
    return 0;
}
int main(void) {
    int *p;
    int *q;
    int i, s, t;
    fill();
    t = 0;
    p = gp;
    t = t + gp[1];
    q = gq;
    s = 0;
    for (i = 0; i < n; i++)
        s = s + q[i] - p[i];
    return s + t;
}
)";
    driver::CompileOptions opts;
    opts.target = MachineKind::Scalar;
    auto cr = driver::compileSource(src, opts);
    ASSERT_TRUE(cr.ok) << cr.diagnostics;
    std::string listing =
        m68k::printFunction(*cr.program->findFunction("main"));
    // The listing pads comments with spaces; compare without them.
    std::string got;
    size_t start = 0;
    while (start < listing.size()) {
        size_t end = listing.find('\n', start);
        if (end == std::string::npos)
            end = listing.size();
        std::string line = listing.substr(start, end - start);
        line.erase(line.find_last_not_of(' ') + 1);
        got += line + "\n";
        start = end + 1;
    }
    EXPECT_EQ(got, R"(| 68020 code for main
main_entry:
    jbsr _fill
    movl (_gp),a0
    movl a0@(8),d0
    movl d0,d1
    movl (_gq),a1
    moveq #0,d2
    moveq #0,d0
    movl (_n),d3
    cmpl d3,#0
    jge L2
L3:
    movl (_n),d3
    movl a1,a1                       | strength-reduce pointer
    movl a0,a0                       | strength-reduce pointer
L0:
    movl a1@+,d4
    addl d4,d2
    movl a0@+,d4
    subl d4,d2
    addql #1,d0
    cmpl d3,d0
    jlt L0
L4:
L2:
    movl d2,d0; addl d1,d0
    rts
)");
}

TEST(Anticipate, MovesCompareAboveIncrement)
{
    driver::CompileOptions opts;
    opts.streaming = false; // keep the compare/branch form
    auto cr = driver::compileSource(kSumLoop, opts);
    ASSERT_TRUE(cr.ok);
    Function *fn = cr.program->findFunction("main");
    fn->recomputeCfg();
    cfg::DominatorTree dt(*fn);
    cfg::LoopInfo li(*fn, dt);
    ASSERT_GE(li.loops().size(), 1u);
    // In the loop latch, the compare must not be the instruction
    // immediately before the branch (it was hoisted earlier).
    bool foundAnticipated = false;
    for (auto &loop : li.loops()) {
        for (Block *latch : loop.latches) {
            const Inst *term = latch->terminator();
            if (!term || term->kind != InstKind::CondJump)
                continue;
            size_t cmpIdx = latch->insts.size();
            for (size_t i = 0; i + 1 < latch->insts.size(); ++i)
                if (latch->insts[i].kind == InstKind::Assign &&
                        latch->insts[i].dst->regFile() == RegFile::CC) {
                    cmpIdx = i;
                }
            if (cmpIdx + 2 <= latch->insts.size() - 1)
                foundAnticipated = true;
        }
    }
    EXPECT_TRUE(foundAnticipated);
}

TEST(Legalize, MaterializesSymbolOperands)
{
    auto prog = expandOnly(kSumLoop, MachineKind::WM);
    Function *fn = prog->findFunction("main");
    auto traits = wmTraits();
    opt::runLegalize(*fn, traits);
    // After legalization every Assign source and Load/Store address is
    // a legal WM shape.
    for (const auto &b : fn->blocks()) {
        for (const Inst &inst : b->insts) {
            switch (inst.kind) {
              case InstKind::Assign:
                if (inst.dst->regFile() == RegFile::CC)
                    EXPECT_TRUE(opt::fitsCompareSrc(inst.src, traits))
                        << inst.str();
                else
                    EXPECT_TRUE(opt::fitsAssignSrc(inst.src, traits))
                        << inst.str();
                break;
              case InstKind::Load:
              case InstKind::Store:
                EXPECT_TRUE(opt::fitsAddr(inst.addr, traits))
                    << inst.str();
                break;
              default:
                break;
            }
        }
    }
}

TEST(Cleanup, SecondRunReportsNoChange)
{
    // runCleanup returns at a fixpoint, so running it again right
    // away changes nothing: on the expander's code, and on 68020
    // code that strength reduction has just rewritten.
    for (MachineKind kind : {MachineKind::WM, MachineKind::Scalar}) {
        auto prog = expandOnly(kSumLoop, kind);
        auto traits =
            kind == MachineKind::WM ? wmTraits() : scalarTraits();
        Function *fn = prog->findFunction("main");
        opt::runLegalize(*fn, traits);
        opt::CleanupResult first = opt::runCleanup(*fn, traits);
        EXPECT_GT(first.changes, 0);
        EXPECT_TRUE(first.converged);
        if (kind == MachineKind::Scalar) {
            ASSERT_GT(opt::runStrengthReduce(*fn, traits), 0);
            EXPECT_GT(opt::runCleanup(*fn, traits).changes, 0);
        }
        opt::CleanupResult second = opt::runCleanup(*fn, traits);
        EXPECT_EQ(second.changes, 0);
        EXPECT_TRUE(second.converged);
    }
}

TEST(Licm, HoistsThroughNewPreheaderOutOfNestedLoops)
{
    // The do-while header has two out-of-loop predecessors, the two
    // arms of the if, so LICM must add its preheader inside the outer
    // loop, find both loops again, and hoist the load of g on out of
    // the outer loop.
    const char *src = R"(
int g = 3;
int a[8];
int main(void) {
    int i, j, k, s;
    s = 0;
    for (j = 0; j < 8; j++)
        a[j] = j - 3;
    for (j = 0; j < 8; j++) {
        i = 0;
        if (a[j] > 0)
            k = 1;
        else
            k = 2;
        do {
            s = s + g * 5 + k;
            i++;
        } while (i < 10);
    }
    return s;
}
)";
    auto prog = expandOnly(src, MachineKind::WM);
    auto traits = wmTraits();
    Function *fn = prog->findFunction("main");
    opt::runLegalize(*fn, traits);
    // The cleanup that runs before LICM in the pipeline.
    opt::runCleanup(*fn, traits);

    // The number of loops holding the address of g or its load (the
    // only load through a plain register).
    auto loopsHoldingG = [&] {
        fn->recomputeCfg();
        cfg::DominatorTree dt(*fn);
        cfg::LoopInfo li(*fn, dt);
        int n = 0;
        for (const cfg::Loop &loop : li.loops()) {
            bool holds = false;
            for (Block *b : loop.blocks)
                for (const Inst &inst : b->insts)
                    holds |= (inst.kind == InstKind::Assign &&
                              inst.src->isSym() && inst.src->symbol() == "g") ||
                             (inst.kind == InstKind::Load && inst.addr->isReg());
            n += holds;
        }
        return n;
    };
    fn->recomputeCfg();
    {
        cfg::DominatorTree dt(*fn);
        cfg::LoopInfo li(*fn, dt);
        ASSERT_EQ(li.loops().size(), 3u);
        const cfg::Loop &outer = li.loops()[2];
        const cfg::Loop *inner = nullptr;
        for (const cfg::Loop &loop : li.loops())
            if (&loop != &outer && outer.contains(loop.header))
                inner = &loop;
        ASSERT_TRUE(inner && li.isInnermost(*inner));
        ASSERT_FALSE(li.isInnermost(outer));
        int outside = 0;
        for (Block *p : inner->header->preds)
            outside += !inner->contains(p);
        ASSERT_EQ(outside, 2);
    }
    ASSERT_EQ(loopsHoldingG(), 2);

    size_t blocks = fn->blocks().size();
    EXPECT_GT(opt::runLoopInvariantCodeMotion(*fn, traits, prog.get()), 0);
    EXPECT_EQ(fn->blocks().size(), blocks + 1); // the new preheader
    EXPECT_EQ(loopsHoldingG(), 0);

    int64_t expect = oracle(src);
    EXPECT_EQ(expect, 1320);
    driver::CompileOptions opts;
    opts.verify = driver::VerifyMode::Each;
    auto wm = driver::compileSource(src, opts);
    ASSERT_TRUE(wm.ok && wm.verifyClean()) << wm.verifyText();
    auto wres = wmsim::simulate(*wm.program, {});
    ASSERT_TRUE(wres.ok) << wres.error;
    EXPECT_EQ(wres.returnValue, expect);
    opts.target = MachineKind::Scalar;
    auto sc = driver::compileSource(src, opts);
    ASSERT_TRUE(sc.ok && sc.verifyClean()) << sc.verifyText();
    auto sres = timing::runScalar(*sc.program, timing::m88100Model(),
                                  1'000'000'000ull);
    ASSERT_TRUE(sres.ok) << sres.error;
    EXPECT_EQ(sres.returnValue, expect);
}

TEST(LoopSweep, StreamsAndHoistsEveryLoopOfABigTu)
{
    // No pass stops after a fixed number of loops: every loop streams,
    // and LICM leaves every kernel loop with the same body.
    for (int k : {64, 96}) {
        auto cr = driver::compileSource(bigTuSource(k), {});
        ASSERT_TRUE(cr.ok) << cr.diagnostics;
        int streamed = 0;
        for (const auto &sr : cr.streamingReports)
            streamed += sr.loopsStreamed;
        EXPECT_EQ(streamed, k + 1) << "k=" << k;

        Function *fn = cr.program->findFunction("main");
        fn->recomputeCfg();
        cfg::DominatorTree dt(*fn);
        cfg::LoopInfo li(*fn, dt);
        auto loops = loopsInLayoutOrder(li, *fn);
        ASSERT_EQ(loops.size(), static_cast<size_t>(k + 1));
        auto size = [](const cfg::Loop *loop) {
            size_t n = 0;
            for (Block *b : loop->blocks)
                n += b->insts.size();
            return n;
        };
        for (size_t l = 2; l < loops.size(); ++l)
            EXPECT_EQ(size(loops[l]), size(loops[1]))
                << "k=" << k << " kernel loop " << l;
    }
}

TEST(LoopSweep, StrengthReducesEveryLoopOn68020)
{
    // 17 loops make 51 strength-reduction groups, one per array and
    // loop, and every one is rewritten.
    driver::CompileOptions opts;
    opts.target = MachineKind::Scalar;
    auto cr = driver::compileSource(bigTuSource(16), opts);
    ASSERT_TRUE(cr.ok) << cr.diagnostics;
    Function *fn = cr.program->findFunction("main");
    fn->recomputeCfg();
    cfg::DominatorTree dt(*fn);
    cfg::LoopInfo li(*fn, dt);
    auto loops = loopsInLayoutOrder(li, *fn);
    ASSERT_EQ(loops.size(), 17u);
    for (size_t l = 0; l < loops.size(); ++l)
        EXPECT_TRUE(strengthReduced(*loops[l])) << "loop " << l;
}
