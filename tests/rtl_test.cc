/**
 * @file
 * Unit tests for the RTL expression and instruction layer.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "rtl/exec.h"
#include "rtl/expr.h"
#include "rtl/inst.h"
#include "rtl/program.h"

using namespace wmstream::rtl;

TEST(RtlExpr, ConstantFoldingInteger)
{
    auto e = makeBin(Op::Add, makeConst(2), makeConst(3));
    ASSERT_TRUE(e->isConst());
    EXPECT_EQ(e->ival(), 5);

    EXPECT_EQ(makeBin(Op::Mul, makeConst(6), makeConst(7))->ival(), 42);
    EXPECT_EQ(makeBin(Op::Shl, makeConst(1), makeConst(4))->ival(), 16);
    EXPECT_EQ(makeBin(Op::Lt, makeConst(1), makeConst(2))->ival(), 1);
}

TEST(RtlExpr, ConstantFoldingFloat)
{
    auto e = makeBin(Op::Mul, makeFConst(2.5), makeFConst(4.0));
    ASSERT_TRUE(e->isConst());
    EXPECT_DOUBLE_EQ(e->fval(), 10.0);
}

TEST(RtlExpr, DivisionByZeroNotFolded)
{
    // The machines trap on a zero divisor, so the folder must leave
    // the operation for them instead of inventing a value.
    for (Op op : {Op::Div, Op::Rem}) {
        auto e = makeBin(op, makeConst(7), makeConst(0));
        ASSERT_EQ(e->kind(), Expr::Kind::Bin) << e->str();
        EXPECT_EQ(e->op(), op);
    }
    EXPECT_FALSE(
        makeBin(Op::Div, makeFConst(1.0), makeFConst(0.0))->isConst());
}

TEST(RtlExpr, FoldedIntegerArithmeticWraps)
{
    const int64_t min = INT64_MIN, max = INT64_MAX;
    auto fold = [](Op op, int64_t a, int64_t b) {
        auto e = makeBin(op, makeConst(a), makeConst(b));
        EXPECT_TRUE(e->isConst()) << e->str();
        return e->ival();
    };
    EXPECT_EQ(fold(Op::Div, min, -1), min);
    EXPECT_EQ(fold(Op::Rem, min, -1), 0);
    EXPECT_EQ(fold(Op::Add, max, 1), min);
    EXPECT_EQ(fold(Op::Sub, min, 1), max);
    EXPECT_EQ(fold(Op::Mul, max, 2), -2);
    EXPECT_EQ(fold(Op::Div, -7, 2), -3);
    EXPECT_EQ(fold(Op::Rem, -7, 2), -1);
    auto neg = makeUn(Op::Neg, makeConst(min), DataType::I64);
    ASSERT_TRUE(neg->isConst());
    EXPECT_EQ(neg->ival(), min);
}

TEST(RtlExpr, SymbolOffsetFolding)
{
    auto e = makeBin(Op::Add, makeSym("x"), makeConst(8));
    ASSERT_TRUE(e->isSym());
    EXPECT_EQ(e->symbol(), "x");
    EXPECT_EQ(e->symOffset(), 8);

    auto f = makeBin(Op::Sub, makeSym("x", 8), makeConst(16));
    EXPECT_EQ(f->symOffset(), -8);
}

TEST(RtlExpr, IdentitySimplifications)
{
    auto r = makeReg(RegFile::VInt, 3, DataType::I64);
    EXPECT_TRUE(exprEqual(makeBin(Op::Add, r, makeConst(0)), r));
    EXPECT_TRUE(exprEqual(makeBin(Op::Mul, r, makeConst(1)), r));
    EXPECT_TRUE(makeBin(Op::Mul, r, makeConst(0))->isIntConst(0));
    EXPECT_TRUE(exprEqual(makeBin(Op::Shl, r, makeConst(0)), r));
}

TEST(RtlExpr, AddChainReassociation)
{
    // (r + 4) + 4  ->  r + 8
    auto r = makeReg(RegFile::VInt, 1, DataType::I64);
    auto e = makeBin(Op::Add, makeBin(Op::Add, r, makeConst(4)),
                     makeConst(4));
    ASSERT_EQ(e->kind(), Expr::Kind::Bin);
    EXPECT_TRUE(e->rhs()->isIntConst(8));
}

TEST(RtlExpr, CommutativeCanonicalization)
{
    // constant moves to the right of a commutative operator
    auto r = makeReg(RegFile::VInt, 1, DataType::I64);
    auto e = makeBin(Op::Add, makeConst(5), r);
    EXPECT_TRUE(e->lhs()->isReg());
    EXPECT_TRUE(e->rhs()->isConst());
}

TEST(RtlExpr, StructuralEquality)
{
    auto a = makeBin(Op::Add, makeReg(RegFile::Int, 2, DataType::I64),
                     makeConst(4));
    auto b = makeBin(Op::Add, makeReg(RegFile::Int, 2, DataType::I64),
                     makeConst(4));
    auto c = makeBin(Op::Add, makeReg(RegFile::Int, 3, DataType::I64),
                     makeConst(4));
    EXPECT_TRUE(exprEqual(a, b));
    EXPECT_FALSE(exprEqual(a, c));
}

TEST(RtlExpr, SubstReg)
{
    auto r2 = makeReg(RegFile::VInt, 2, DataType::I64);
    auto r9 = makeReg(RegFile::VInt, 9, DataType::I64);
    auto e = makeBin(Op::Add, makeBin(Op::Shl, r2, makeConst(3)), r9);
    auto s = substReg(e, RegFile::VInt, 2,
                      makeReg(RegFile::Int, 22, DataType::I64));
    EXPECT_TRUE(usesReg(s, RegFile::Int, 22));
    EXPECT_FALSE(usesReg(s, RegFile::VInt, 2));
    EXPECT_TRUE(usesReg(s, RegFile::VInt, 9));
}

TEST(RtlExpr, NegationOfRelational)
{
    EXPECT_EQ(negateRelational(Op::Lt), Op::Ge);
    EXPECT_EQ(negateRelational(Op::Eq), Op::Ne);
    EXPECT_EQ(swapRelational(Op::Lt), Op::Gt);
    EXPECT_EQ(swapRelational(Op::Eq), Op::Eq);
}

TEST(RtlExec, FloatToIntConversionIsDefined)
{
    constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
    auto cvt = [](double d) {
        Val out;
        EXPECT_EQ(applyUn(Op::CvtFI, Val{true, 0, d}, out), nullptr);
        EXPECT_FALSE(out.isFloat);
        return out.i;
    };
    EXPECT_EQ(cvt(1e30), kMin);
    EXPECT_EQ(cvt(-1e30), kMin);
    EXPECT_EQ(cvt(std::numeric_limits<double>::quiet_NaN()), kMin);
    EXPECT_EQ(cvt(std::numeric_limits<double>::infinity()), kMin);
    EXPECT_EQ(cvt(9223372036854775808.0), kMin); // 2^63: first out of range
    EXPECT_EQ(cvt(-9223372036854775808.0), kMin); // -2^63: exact
    EXPECT_EQ(cvt(2.9), 2);
    EXPECT_EQ(cvt(-2.9), -2);
}

TEST(RtlInst, UsesAndDefs)
{
    auto dst = makeReg(RegFile::VInt, 5, DataType::I64);
    auto a = makeReg(RegFile::VInt, 1, DataType::I64);
    auto b = makeReg(RegFile::VInt, 2, DataType::I64);
    Inst inst = makeAssign(dst, makeBin(Op::Add, a, b));
    auto countUses = [](const Inst &i) {
        int n = 0;
        forEachUseReg(i, [&](const Expr &) { ++n; });
        return n;
    };
    EXPECT_EQ(countUses(inst), 2);
    EXPECT_TRUE(instDef(inst)->isReg(RegFile::VInt, 5));

    Inst store = makeStore(a, b, DataType::I64);
    EXPECT_EQ(countUses(store), 2);
    EXPECT_TRUE(instDef(store) == nullptr);
}

TEST(RtlInst, TerminatorClassification)
{
    EXPECT_TRUE(makeJump("L1").isTerminator());
    EXPECT_TRUE(makeCondJump(UnitSide::Int, true, "L1").isTerminator());
    EXPECT_TRUE(makeJumpStream(UnitSide::Flt, 0, "L1").isTerminator());
    EXPECT_TRUE(makeReturn().isTerminator());
    EXPECT_FALSE(makeCall("f").isTerminator());
    EXPECT_FALSE(makeStreamStop(UnitSide::Int, 0).isTerminator());
}

TEST(RtlFunction, BlocksAndCfg)
{
    Function fn("f");
    Block *b0 = fn.addBlock("entry");
    Block *b1 = fn.addBlock("body");
    Block *b2 = fn.addBlock("exit");
    b0->insts.push_back(makeCondJump(UnitSide::Int, true, "exit"));
    b1->insts.push_back(makeJump("exit"));
    b2->insts.push_back(makeReturn());
    fn.recomputeCfg();

    ASSERT_EQ(b0->succs.size(), 2u); // branch target + fallthrough
    EXPECT_EQ(b1->succs.size(), 1u);
    EXPECT_EQ(b2->preds.size(), 2u);
}

TEST(RtlFunction, RemoveUnreachable)
{
    Function fn("f");
    Block *b0 = fn.addBlock("entry");
    fn.addBlock("orphan"); // never targeted; entry returns first
    b0->insts.push_back(makeReturn());
    fn.removeUnreachable();
    EXPECT_EQ(fn.blocks().size(), 1u);
}

TEST(RtlProgram, LayoutAssignsAlignedAddresses)
{
    Program prog;
    prog.addGlobal("a", 3, 1);
    prog.addGlobal("b", 8, 8);
    prog.addGlobal("c", 1, 1);
    EXPECT_EQ(prog.dataEnd(), -1);
    int64_t end = prog.layout();
    // The globals sit above the stack reservation.
    EXPECT_EQ(prog.globalAddress("a"), kStackBytes);
    EXPECT_EQ(prog.globalAddress("b") % 8, 0);
    EXPECT_GT(prog.globalAddress("c"), prog.globalAddress("b"));
    EXPECT_GE(end, prog.globalAddress("c") + 1);
    EXPECT_EQ(prog.dataEnd(), end);
}

TEST(RtlProgram, FrameSlots)
{
    Function fn("f");
    int64_t a = fn.allocFrameSlot(8, 8);
    int64_t b = fn.allocFrameSlot(1, 1);
    int64_t c = fn.allocFrameSlot(8, 8);
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 8);
    EXPECT_EQ(c % 8, 0);
    EXPECT_GE(fn.frameSize, 17);
}
