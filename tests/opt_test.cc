/**
 * @file
 * Unit tests for the classic optimizer phases.
 */

#include <gtest/gtest.h>

#include "cfg/liveness.h"
#include "driver/compiler.h"
#include "opt/legal.h"
#include "opt/passes.h"
#include "rtl/machine.h"
#include "support/str.h"
#include "timing/scalar_sim.h"
#include "wmsim/sim.h"

using namespace wmstream;
using namespace wmstream::rtl;

namespace {

ExprPtr
vi(Function &fn)
{
    return fn.newVReg(DataType::I64);
}

Inst
retWith(const ExprPtr &reg)
{
    Inst r = makeReturn();
    r.extraUses.push_back(reg);
    return r;
}

int
countInsts(const Function &fn)
{
    return fn.instCount();
}

} // namespace

// ---------------------------------------------------------------- legal

TEST(Legal, WmOperandShapes)
{
    auto traits = wmTraits();
    EXPECT_TRUE(opt::fitsOperand(makeReg(RegFile::Int, 5, DataType::I64),
                                 traits));
    EXPECT_TRUE(opt::fitsOperand(makeConst(100), traits));
    EXPECT_FALSE(opt::fitsOperand(makeConst(1 << 20), traits));
    EXPECT_FALSE(opt::fitsOperand(makeSym("x"), traits));
}

TEST(Legal, WmDualOpShapes)
{
    auto traits = wmTraits();
    auto r1 = makeReg(RegFile::Int, 1, DataType::I64);
    auto r2 = makeReg(RegFile::Int, 2, DataType::I64);
    auto r3 = makeReg(RegFile::Int, 3, DataType::I64);
    // (r1 << 3) + r2 : the paper's canonical address computation
    auto dual = makeBinRaw(Op::Add,
                           makeBinRaw(Op::Shl, r1, makeConst(3),
                                      DataType::I64),
                           r2, DataType::I64);
    EXPECT_TRUE(opt::fitsAssignSrc(dual, traits));
    EXPECT_TRUE(opt::fitsAddr(dual, traits));
    // commuted dual: r3 + (r1*r2) is encodable by swapping
    auto commuted = makeBinRaw(Op::Add, r3,
                               makeBinRaw(Op::Mul, r1, r2, DataType::I64),
                               DataType::I64);
    EXPECT_TRUE(opt::fitsAssignSrc(commuted, traits));
    // non-commutative outer with inner on the right is NOT encodable
    auto bad = makeBinRaw(Op::Sub, r3,
                          makeBinRaw(Op::Mul, r1, r2, DataType::I64),
                          DataType::I64);
    EXPECT_FALSE(opt::fitsAssignSrc(bad, traits));
    // triple-deep trees are not single instructions
    auto deep = makeBinRaw(Op::Add,
                           makeBinRaw(Op::Add, dual, r3, DataType::I64),
                           r3, DataType::I64);
    EXPECT_FALSE(opt::fitsAssignSrc(deep, traits));
}

TEST(Legal, ScalarHasNoDualOp)
{
    auto traits = scalarTraits();
    auto r1 = makeReg(RegFile::Int, 1, DataType::I64);
    auto r2 = makeReg(RegFile::Int, 2, DataType::I64);
    auto dual = makeBinRaw(Op::Add,
                           makeBinRaw(Op::Shl, r1, makeConst(3),
                                      DataType::I64),
                           r2, DataType::I64);
    EXPECT_FALSE(opt::fitsAssignSrc(dual, traits));
    // ... but it IS a legal 68020 address mode (scaled index)
    EXPECT_TRUE(opt::fitsAddr(dual, traits));
    EXPECT_TRUE(opt::fitsAddr(makeSym("x"), traits));
}

TEST(Legal, CompareShapes)
{
    auto traits = wmTraits();
    auto r1 = makeReg(RegFile::Int, 1, DataType::I64);
    auto cmp = makeBinRaw(Op::Le,
                          makeBinRaw(Op::Sub, r1, makeConst(1),
                                     DataType::I64),
                          makeConst(0), DataType::I64);
    // paper Figure 7 line 1: r31 := (r21-1) <= 0
    EXPECT_TRUE(opt::fitsCompareSrc(cmp, traits));
    EXPECT_FALSE(opt::fitsCompareSrc(r1, traits)); // not relational
}

// -------------------------------------------------------------- combine

TEST(Combine, FoldsSingleUseDefIntoDualOp)
{
    auto traits = wmTraits();
    Function fn("f");
    Block *b = fn.addBlock("entry");
    auto t = vi(fn);
    auto a = makeReg(RegFile::Int, 4, DataType::I64);
    auto d = vi(fn);
    auto ret = makeReg(RegFile::Int, 2, DataType::I64);
    b->insts.push_back(makeAssign(t, makeBin(Op::Shl, a, makeConst(3))));
    b->insts.push_back(makeAssign(d, makeBin(Op::Add, t, a)));
    b->insts.push_back(makeAssign(ret, d));
    b->insts.push_back(retWith(ret));
    fn.recomputeCfg();

    int before = countInsts(fn);
    int folded = opt::runCombine(fn, traits);
    EXPECT_GE(folded, 1);
    EXPECT_LT(countInsts(fn), before);
}

TEST(Combine, DoesNotFoldMultiUseDef)
{
    auto traits = wmTraits();
    Function fn("f");
    Block *b = fn.addBlock("entry");
    auto t = vi(fn);
    auto a = makeReg(RegFile::Int, 4, DataType::I64);
    auto d1 = vi(fn);
    auto d2 = vi(fn);
    b->insts.push_back(makeAssign(t, makeBin(Op::Shl, a, makeConst(3))));
    b->insts.push_back(makeAssign(d1, makeBin(Op::Add, t, a)));
    b->insts.push_back(makeAssign(d2, makeBin(Op::Sub, t, a)));
    auto ret = makeReg(RegFile::Int, 2, DataType::I64);
    b->insts.push_back(makeAssign(ret, makeBin(Op::Add, d1, d2)));
    b->insts.push_back(retWith(ret));
    fn.recomputeCfg();

    opt::runCombine(fn, traits);
    // t has two uses: its def must survive (other folds may happen)
    ASSERT_FALSE(b->insts.empty());
    EXPECT_TRUE(b->insts[0].dst->isReg(t->regFile(), t->regIndex()));
    bool tUsed = false;
    for (const Inst &inst : b->insts)
        forEachUseReg(inst, [&](const Expr &u) {
            tUsed = tUsed || u.isReg(t->regFile(), t->regIndex());
        });
    EXPECT_TRUE(tUsed);
}

TEST(Combine, BlockedByInterveningRedefinition)
{
    auto traits = wmTraits();
    Function fn("f");
    Block *b = fn.addBlock("entry");
    auto t = vi(fn);
    auto a = makeReg(RegFile::Int, 4, DataType::I64);
    auto d = vi(fn);
    b->insts.push_back(makeAssign(t, makeBin(Op::Shl, a, makeConst(3))));
    // redefinition of the source register a between def and use
    b->insts.push_back(makeAssign(a, makeConst(0)));
    b->insts.push_back(makeAssign(d, makeBin(Op::Add, t, a)));
    auto ret = makeReg(RegFile::Int, 2, DataType::I64);
    b->insts.push_back(makeAssign(ret, d));
    b->insts.push_back(retWith(ret));
    fn.recomputeCfg();

    opt::runCombine(fn, traits);
    // folding t's shl over the redefinition of a would change meaning:
    // t's definition must still be the first instruction
    ASSERT_FALSE(b->insts.empty());
    EXPECT_TRUE(b->insts[0].dst->isReg(t->regFile(), t->regIndex()));
    EXPECT_EQ(b->insts[0].src->op(), Op::Shl);
}

TEST(Combine, FoldThatDropsARegisterFreesItsOtherUse)
{
    // Folding v2 := 0 into v3 := v1 * v2 leaves v3 := 0, so v1 loses a
    // use although v1 is not the folded register. The use counts must
    // see that: v1 is then single-use, and its def folds into the one
    // use left, as a full recount of the function would allow.
    auto traits = wmTraits();
    Function fn("f");
    Block *b = fn.addBlock("entry");
    auto a = makeReg(RegFile::Int, 4, DataType::I64);
    auto v1 = vi(fn);
    auto v2 = vi(fn);
    auto v3 = vi(fn);
    auto v4 = vi(fn);
    auto ret = makeReg(RegFile::Int, 2, DataType::I64);
    b->insts.push_back(makeAssign(v1, makeBin(Op::Shl, a, makeConst(3))));
    b->insts.push_back(makeAssign(v2, makeConst(0)));
    b->insts.push_back(makeAssign(v3, makeBin(Op::Mul, v1, v2)));
    b->insts.push_back(makeAssign(v4, makeBin(Op::Add, v1, a)));
    b->insts.push_back(makeAssign(ret, makeBin(Op::Add, v3, v4)));
    b->insts.push_back(retWith(ret));
    fn.recomputeCfg();

    EXPECT_EQ(opt::runCombine(fn, traits), 4);
    ASSERT_EQ(b->insts.size(), 2u);
    EXPECT_EQ(b->insts[0].str(), "r[2] := ((r[4]<<3)+r[4])");
    EXPECT_EQ(opt::runCombine(fn, traits), 0);
}

// ------------------------------------------------------------- copyprop

TEST(CopyProp, PropagatesRegisterCopies)
{
    auto traits = wmTraits();
    Function fn("f");
    Block *b = fn.addBlock("entry");
    auto a = vi(fn);
    auto c = vi(fn);
    auto d = vi(fn);
    b->insts.push_back(makeAssign(a, makeConst(3)));
    b->insts.push_back(makeAssign(c, a));
    b->insts.push_back(makeAssign(d, makeBin(Op::Add, c, c)));
    auto ret = makeReg(RegFile::Int, 2, DataType::I64);
    b->insts.push_back(makeAssign(ret, d));
    b->insts.push_back(retWith(ret));
    fn.recomputeCfg();

    EXPECT_GT(opt::runValuePropagation(fn, traits), 0);
    // the add now reads `a` (or the constant), not `c`
    EXPECT_FALSE(usesReg(b->insts[2].src, c->regFile(), c->regIndex()));
}

TEST(CopyProp, PropagatedZeroDivisorStillTraps)
{
    // Copy propagation makes the divisor a constant 0. Folding it to a
    // value would turn the run-time trap into a wrong result.
    const char *src = "int main(void) { int y; y = 0; return 7 / y; }";
    for (MachineKind target : {MachineKind::WM, MachineKind::Scalar}) {
        driver::CompileOptions opts;
        opts.target = target;
        auto cr = driver::compileSource(src, opts);
        ASSERT_TRUE(cr.ok) << cr.diagnostics;
        std::string error =
            target == MachineKind::WM
                ? wmsim::simulate(*cr.program).error
                : timing::runScalar(*cr.program, timing::sun3_280Model())
                      .error;
        EXPECT_EQ(error, "integer divide by zero");
    }
}

TEST(CopyProp, InvalidatedByRedefinition)
{
    auto traits = wmTraits();
    Function fn("f");
    Block *b = fn.addBlock("entry");
    auto a = vi(fn);
    auto c = vi(fn);
    b->insts.push_back(makeAssign(a, makeConst(3)));
    b->insts.push_back(makeAssign(c, a));
    b->insts.push_back(makeAssign(a, makeConst(9))); // kills the copy
    auto ret = makeReg(RegFile::Int, 2, DataType::I64);
    b->insts.push_back(makeAssign(ret, makeBin(Op::Add, c, makeConst(0))));
    b->insts.push_back(retWith(ret));
    fn.recomputeCfg();

    opt::runValuePropagation(fn, traits);
    // c must NOT be replaced by a after a was redefined
    EXPECT_FALSE(usesReg(b->insts[3].src, a->regFile(), a->regIndex()));
}

// ------------------------------------------------------------------ dce

TEST(Dce, RemovesDeadAssign)
{
    auto traits = wmTraits();
    Function fn("f");
    Block *b = fn.addBlock("entry");
    auto dead = vi(fn);
    auto ret = makeReg(RegFile::Int, 2, DataType::I64);
    b->insts.push_back(makeAssign(dead, makeConst(3)));
    b->insts.push_back(makeAssign(ret, makeConst(0)));
    b->insts.push_back(retWith(ret));
    fn.recomputeCfg();

    EXPECT_EQ(opt::runDeadCodeElim(fn, traits), 1);
    EXPECT_EQ(b->insts.size(), 2u);
}

TEST(Dce, RemovesDeadChains)
{
    auto traits = wmTraits();
    Function fn("f");
    Block *b = fn.addBlock("entry");
    auto a = vi(fn), c = vi(fn);
    auto ret = makeReg(RegFile::Int, 2, DataType::I64);
    b->insts.push_back(makeAssign(a, makeConst(3)));
    b->insts.push_back(makeAssign(c, makeBin(Op::Add, a, makeConst(1))));
    b->insts.push_back(makeAssign(ret, makeConst(0)));
    b->insts.push_back(retWith(ret));
    fn.recomputeCfg();

    EXPECT_EQ(opt::runDeadCodeElim(fn, traits), 2);
}

TEST(Dce, KeepsStoresAndFifoOperations)
{
    auto traits = wmTraits();
    Function fn("f");
    Block *b = fn.addBlock("entry");
    auto addr = makeReg(RegFile::Int, 4, DataType::I64);
    auto f0 = makeReg(RegFile::Flt, 0, DataType::F64);
    auto v = makeReg(RegFile::Flt, 20, DataType::F64);
    // enqueue (writes FIFO): must never be deleted even though no
    // visible consumer exists
    b->insts.push_back(makeAssign(f0, v));
    // dequeue (reads FIFO): likewise
    b->insts.push_back(makeAssign(v, f0));
    b->insts.push_back(makeStore(addr, v, DataType::F64));
    b->insts.push_back(makeReturn());
    fn.recomputeCfg();

    opt::runDeadCodeElim(fn, traits);
    EXPECT_EQ(b->insts.size(), 4u);
}

TEST(Dce, RemovesSelfCopy)
{
    auto traits = wmTraits();
    Function fn("f");
    Block *b = fn.addBlock("entry");
    auto a = makeReg(RegFile::Int, 4, DataType::I64);
    b->insts.push_back(makeAssign(a, a));
    auto ret = makeReg(RegFile::Int, 2, DataType::I64);
    b->insts.push_back(makeAssign(ret, a));
    b->insts.push_back(retWith(ret));
    fn.recomputeCfg();

    EXPECT_GE(opt::runDeadCodeElim(fn, traits), 1);
    EXPECT_EQ(b->insts.size(), 2u);
}

TEST(Dce, UnconsumedCompareIsDeleted)
{
    auto traits = wmTraits();
    Function fn("f");
    Block *b = fn.addBlock("entry");
    auto a = makeReg(RegFile::Int, 4, DataType::I64);
    b->insts.push_back(makeAssign(makeReg(RegFile::CC, 0, DataType::I64),
                                  makeBin(Op::Lt, a, makeConst(4))));
    b->insts.push_back(makeReturn());
    fn.recomputeCfg();
    EXPECT_EQ(opt::runDeadCodeElim(fn, traits), 1);
}

TEST(Dce, DeletesADeadChainAcrossManyBlocks)
{
    // rk := rk-1 + 1, one link per block, and nothing reads the last.
    // A round's liveness still sees rk live out of block k while block
    // k + 1 reads it, so each round deletes one link: 22 rounds.
    auto traits = wmTraits();
    Function fn("f");
    constexpr int kLinks = 22;
    ExprPtr prev;
    for (int k = 0; k < kLinks; ++k) {
        Block *b = fn.addBlock(strFormat("b%d", k));
        auto r = vi(fn);
        b->insts.push_back(makeAssign(
            r, k == 0 ? makeConst(1) : makeBin(Op::Add, prev, makeConst(1))));
        prev = r;
    }
    fn.addBlock("exit")->insts.push_back(makeReturn());
    fn.recomputeCfg();

    EXPECT_EQ(opt::runDeadCodeElim(fn, traits), kLinks);
    EXPECT_EQ(countInsts(fn), 1);
}

// ------------------------------------------------------------ branchopt

TEST(BranchOpt, ThreadsJumpChains)
{
    Function fn("f");
    Block *b0 = fn.addBlock("entry");
    Block *b1 = fn.addBlock("hop");
    Block *b2 = fn.addBlock("end");
    b0->insts.push_back(makeJump("hop"));
    b1->insts.push_back(makeJump("end"));
    b2->insts.push_back(makeReturn());
    fn.recomputeCfg();

    EXPECT_GT(opt::runBranchOpt(fn), 0);
    // everything collapses to entry -> return
    EXPECT_EQ(fn.blocks().size(), 1u);
    EXPECT_EQ(fn.entry()->insts.back().kind, InstKind::Return);
}

TEST(BranchOpt, RemovesJumpToNext)
{
    Function fn("f");
    Block *b0 = fn.addBlock("entry");
    Block *b1 = fn.addBlock("next");
    b0->insts.push_back(makeJump("next"));
    b1->insts.push_back(makeReturn());
    fn.recomputeCfg();

    EXPECT_GT(opt::runBranchOpt(fn), 0);
    EXPECT_EQ(fn.blocks().size(), 1u);
}

// ------------------------------------------------------------------ cse

TEST(Cse, ReusesAddressComputation)
{
    auto traits = wmTraits();
    Function fn("f");
    Block *b = fn.addBlock("entry");
    auto i = makeReg(RegFile::Int, 4, DataType::I64);
    auto a = vi(fn), c = vi(fn);
    b->insts.push_back(makeAssign(a, makeBin(Op::Shl, i, makeConst(3))));
    b->insts.push_back(makeAssign(c, makeBin(Op::Shl, i, makeConst(3))));
    auto ret = makeReg(RegFile::Int, 2, DataType::I64);
    b->insts.push_back(makeAssign(ret, makeBin(Op::Add, a, c)));
    b->insts.push_back(retWith(ret));
    fn.recomputeCfg();

    EXPECT_GT(opt::runValuePropagation(fn, traits), 0);
    // the second computation became a copy of the first, and the add
    // reads through that copy
    EXPECT_TRUE(b->insts[1].src->isReg(a->regFile(), a->regIndex()));
    EXPECT_FALSE(usesReg(b->insts[2].src, c->regFile(), c->regIndex()));
    EXPECT_EQ(opt::runValuePropagation(fn, traits), 0);
}

TEST(Cse, InvalidatedByOperandRedefinition)
{
    auto traits = wmTraits();
    Function fn("f");
    Block *b = fn.addBlock("entry");
    auto i = makeReg(RegFile::Int, 4, DataType::I64);
    auto a = vi(fn), c = vi(fn);
    b->insts.push_back(makeAssign(a, makeBin(Op::Shl, i, makeConst(3))));
    b->insts.push_back(makeAssign(i, makeBin(Op::Add, i, makeConst(1))));
    b->insts.push_back(makeAssign(c, makeBin(Op::Shl, i, makeConst(3))));
    auto ret = makeReg(RegFile::Int, 2, DataType::I64);
    b->insts.push_back(makeAssign(ret, makeBin(Op::Add, a, c)));
    b->insts.push_back(retWith(ret));
    fn.recomputeCfg();

    EXPECT_EQ(opt::runValuePropagation(fn, traits), 0);
}

TEST(Cse, RedundantLoadEliminated)
{
    auto traits = wmTraits();
    Function fn("f");
    Block *b = fn.addBlock("entry");
    auto p = makeReg(RegFile::Int, 4, DataType::I64);
    auto a = vi(fn), c = vi(fn);
    b->insts.push_back(makeLoad(a, p, DataType::I64));
    b->insts.push_back(makeLoad(c, p, DataType::I64));
    auto ret = makeReg(RegFile::Int, 2, DataType::I64);
    b->insts.push_back(makeAssign(ret, makeBin(Op::Add, a, c)));
    b->insts.push_back(retWith(ret));
    fn.recomputeCfg();

    EXPECT_GT(opt::runValuePropagation(fn, traits), 0);
    EXPECT_EQ(b->insts[1].kind, InstKind::Assign);
    EXPECT_TRUE(b->insts[1].src->isReg(a->regFile(), a->regIndex()));
    EXPECT_FALSE(usesReg(b->insts[2].src, c->regFile(), c->regIndex()));
}

TEST(Cse, LoadNotReusedAcrossStore)
{
    auto traits = wmTraits();
    Function fn("f");
    Block *b = fn.addBlock("entry");
    auto p = makeReg(RegFile::Int, 4, DataType::I64);
    auto q = makeReg(RegFile::Int, 5, DataType::I64);
    auto a = vi(fn), c = vi(fn);
    b->insts.push_back(makeLoad(a, p, DataType::I64));
    b->insts.push_back(makeStore(q, a, DataType::I64)); // may alias p
    b->insts.push_back(makeLoad(c, p, DataType::I64));
    auto ret = makeReg(RegFile::Int, 2, DataType::I64);
    b->insts.push_back(makeAssign(ret, makeBin(Op::Add, a, c)));
    b->insts.push_back(retWith(ret));
    fn.recomputeCfg();

    // Conservative: the second load must stay (q may alias p). The
    // store-to-load forwarding table may still rewrite it through q's
    // stored value only if addresses match structurally — they don't.
    opt::runValuePropagation(fn, traits);
    EXPECT_EQ(b->insts[2].kind, InstKind::Load);
}

TEST(Cse, ChainCollapsesInOneWalk)
{
    // b repeats a, so d repeats c once b is read as a: one walk sees
    // both, because the first hit leaves a copy the second reads
    // through.
    auto traits = wmTraits();
    Function fn("f");
    Block *blk = fn.addBlock("entry");
    auto x = makeReg(RegFile::Int, 4, DataType::I64);
    auto y = makeReg(RegFile::Int, 5, DataType::I64);
    auto z = makeReg(RegFile::Int, 6, DataType::I64);
    auto a = vi(fn), b = vi(fn), c = vi(fn), d = vi(fn);
    blk->insts.push_back(makeAssign(a, makeBin(Op::Add, x, y)));
    blk->insts.push_back(makeAssign(b, makeBin(Op::Add, x, y)));
    blk->insts.push_back(makeAssign(c, makeBin(Op::Mul, a, z)));
    blk->insts.push_back(makeAssign(d, makeBin(Op::Mul, b, z)));
    auto ret = makeReg(RegFile::Int, 2, DataType::I64);
    blk->insts.push_back(makeAssign(ret, makeBin(Op::Add, c, d)));
    blk->insts.push_back(retWith(ret));
    fn.recomputeCfg();

    EXPECT_GT(opt::runValuePropagation(fn, traits), 0);
    EXPECT_TRUE(blk->insts[1].src->isReg(a->regFile(), a->regIndex()));
    EXPECT_TRUE(blk->insts[3].src->isReg(c->regFile(), c->regIndex()));
    // Nothing is left for a second walk.
    EXPECT_EQ(opt::runValuePropagation(fn, traits), 0);
}
