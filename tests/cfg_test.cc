/**
 * @file
 * Unit tests for dominators, natural loops, preheaders, and liveness.
 */

#include <gtest/gtest.h>

#include "cfg/defuse.h"
#include "cfg/dominators.h"
#include "cfg/liveness.h"
#include "cfg/loops.h"
#include "rtl/machine.h"

using namespace wmstream;
using namespace wmstream::rtl;

namespace {

/** Build the canonical rotated loop:
 *  entry -> guard(condjump exit) -> pre -> header(body, condjump header)
 *  -> exit */
Function
makeLoopFunction()
{
    Function fn("f");
    Block *entry = fn.addBlock("entry");
    Block *header = fn.addBlock("header");
    Block *exit = fn.addBlock("exit");

    auto iv = makeReg(RegFile::VInt, 0, DataType::I64);
    entry->insts.push_back(makeAssign(iv, makeConst(0)));
    entry->insts.push_back(
        makeAssign(makeReg(RegFile::CC, 0, DataType::I64),
                   makeBin(Op::Ge, iv, makeConst(10))));
    entry->insts.push_back(makeCondJump(UnitSide::Int, true, "exit"));

    header->insts.push_back(
        makeAssign(iv, makeBin(Op::Add, iv, makeConst(1))));
    header->insts.push_back(
        makeAssign(makeReg(RegFile::CC, 0, DataType::I64),
                   makeBin(Op::Lt, iv, makeConst(10))));
    header->insts.push_back(makeCondJump(UnitSide::Int, true, "header"));

    exit->insts.push_back(makeReturn());
    fn.recomputeCfg();
    return fn;
}

} // namespace

TEST(Dominators, EntryDominatesAll)
{
    Function fn = makeLoopFunction();
    cfg::DominatorTree dt(fn);
    Block *entry = fn.findBlock("entry");
    for (auto &b : fn.blocks())
        EXPECT_TRUE(dt.dominates(entry, b.get()));
}

TEST(Dominators, SelfDominance)
{
    Function fn = makeLoopFunction();
    cfg::DominatorTree dt(fn);
    for (auto &b : fn.blocks())
        EXPECT_TRUE(dt.dominates(b.get(), b.get()));
}

TEST(Dominators, LoopBodyDoesNotDominateExit)
{
    Function fn = makeLoopFunction();
    cfg::DominatorTree dt(fn);
    // the guard can jump straight to exit, so header !dom exit
    EXPECT_FALSE(dt.dominates(fn.findBlock("header"),
                              fn.findBlock("exit")));
}

TEST(Dominators, Idom)
{
    Function fn = makeLoopFunction();
    cfg::DominatorTree dt(fn);
    EXPECT_EQ(dt.idom(fn.findBlock("entry")), nullptr);
    EXPECT_EQ(dt.idom(fn.findBlock("header")), fn.findBlock("entry"));
}

TEST(Loops, DetectsSingleBlockLoop)
{
    Function fn = makeLoopFunction();
    cfg::DominatorTree dt(fn);
    cfg::LoopInfo li(fn, dt);
    ASSERT_EQ(li.loops().size(), 1u);
    const cfg::Loop &loop = li.loops()[0];
    EXPECT_EQ(loop.header, fn.findBlock("header"));
    EXPECT_EQ(loop.blocks.size(), 1u);
    ASSERT_EQ(loop.latches.size(), 1u);
    EXPECT_EQ(loop.latches[0], loop.header);
    EXPECT_EQ(loop.exiting.size(), 1u);
}

TEST(Loops, EnsurePreheaderCreatesOne)
{
    Function fn = makeLoopFunction();
    fn.recomputeCfg();
    cfg::DominatorTree dt(fn);
    cfg::LoopInfo li(fn, dt);
    cfg::Loop &loop = li.loops()[0];

    size_t before = fn.blocks().size();
    Block *pre = cfg::ensurePreheader(fn, loop);
    ASSERT_TRUE(pre != nullptr);
    EXPECT_EQ(fn.blocks().size(), before + 1);
    // preheader's single successor is the header
    fn.recomputeCfg();
    ASSERT_EQ(pre->succs.size(), 1u);
    EXPECT_EQ(pre->succs[0], loop.header);
    // calling again returns the same block
    EXPECT_EQ(cfg::ensurePreheader(fn, loop), pre);
}

TEST(Loops, EnsurePreheaderUpdatesEdgesInPlace)
{
    Function fn = makeLoopFunction();
    cfg::DominatorTree dt(fn);
    cfg::LoopInfo li(fn, dt);
    int64_t relinks = fn.work.cfgRecomputes;
    Block *pre = cfg::ensurePreheader(fn, li.loops()[0]);
    EXPECT_EQ(fn.work.cfgRecomputes, relinks);
    EXPECT_TRUE(fn.cfgIsCurrent());
    ASSERT_EQ(pre->succs.size(), 1u);
    EXPECT_EQ(pre->succs[0], fn.findBlock("header"));
}

TEST(Loops, EnsurePreheaderStubKeepsTheBackEdge)
{
    // An in-loop block laid out before the header falls into it on a
    // conditional branch, and two blocks enter the loop from outside:
    // entry, e2, body, header, exit.
    Function fn("f");
    Block *entry = fn.addBlock("entry");
    Block *e2 = fn.addBlock("e2");
    Block *body = fn.addBlock("body");
    Block *header = fn.addBlock("header");
    fn.addBlock("exit")->insts.push_back(makeReturn());
    auto cc = makeReg(RegFile::CC, 0, DataType::I64);
    auto r = makeReg(RegFile::VInt, 0, DataType::I64);
    entry->insts.push_back(makeAssign(r, makeConst(0)));
    entry->insts.push_back(makeAssign(cc, makeBin(Op::Lt, r, makeConst(5))));
    entry->insts.push_back(makeCondJump(UnitSide::Int, true, "header"));
    e2->insts.push_back(makeJump("header"));
    body->insts.push_back(makeAssign(cc, makeBin(Op::Ge, r, makeConst(9))));
    body->insts.push_back(makeCondJump(UnitSide::Int, true, "exit"));
    header->insts.push_back(makeAssign(r, makeBin(Op::Add, r, makeConst(1))));
    header->insts.push_back(makeJump("body"));
    fn.recomputeCfg();

    cfg::DominatorTree dt(fn);
    cfg::LoopInfo li(fn, dt);
    cfg::Loop *loop = li.find(header);
    ASSERT_TRUE(loop != nullptr);
    EXPECT_TRUE(loop->contains(body));
    Block *pre = cfg::ensurePreheader(fn, *loop);
    EXPECT_TRUE(fn.cfgIsCurrent());
    // entry, e2, body, stub, pre, header, exit.
    ASSERT_EQ(fn.blocks().size(), 7u);
    Block *stub = fn.blocks()[3].get();
    EXPECT_EQ(fn.blocks()[4].get(), pre);
    // The back edge goes through the stub straight to the header; only
    // the edges from outside the loop enter the preheader.
    EXPECT_EQ(stub->insts.back().target, "header");
    EXPECT_EQ(pre->preds, (std::vector<Block *>{entry, e2}));
    EXPECT_EQ(header->preds, (std::vector<Block *>{stub, pre}));
    EXPECT_EQ(entry->insts.back().target, pre->label());
}

TEST(DefUse, CountsSitesAndRescansOneBlock)
{
    Function fn = makeLoopFunction();
    cfg::DefUseTable du(fn, wmTraits());
    EXPECT_EQ(fn.work.defUseBuilds, 1);
    Block *entry = fn.findBlock("entry");
    Block *header = fn.findBlock("header");
    cfg::RegKey iv{RegFile::VInt, 0};
    // Defined in entry and by the increment; read by the increment and
    // both compares.
    EXPECT_EQ(du.defCount(iv), 2);
    EXPECT_EQ(du.useCount(iv), 3);
    EXPECT_EQ(du.uniqueDef(iv).block, nullptr);
    cfg::Site init = du.otherDef(iv, {header, 0});
    EXPECT_EQ(init.block, entry);
    EXPECT_EQ(init.index, 0u);

    // A new register with one def and one use in the header.
    auto t = makeReg(RegFile::VInt, 1, DataType::I64);
    header->insts.insert(header->insts.begin(),
                         makeAssign(t, makeConst(7)));
    header->insts.insert(header->insts.begin() + 1,
                         makeAssign(makeReg(RegFile::VInt, 2, DataType::I64),
                                    makeBin(Op::Add, t, makeConst(1))));
    EXPECT_FALSE(du.matchesFunction());
    du.rescan(header);
    EXPECT_TRUE(du.matchesFunction());
    EXPECT_EQ(fn.work.defUseBlockRescans, 1);
    EXPECT_EQ(du.uniqueDef({RegFile::VInt, 1}).block, header);
    cfg::Site use = du.uniqueUse({RegFile::VInt, 1});
    EXPECT_EQ(use.block, header);
    EXPECT_EQ(use.index, 1u);
    // The increment moved down by two.
    EXPECT_EQ(du.otherDef(iv, {entry, 0}).index, 2u);
}

TEST(Loops, NestedLoopsOrderedInnermostFirst)
{
    Function fn("f");
    Block *entry = fn.addBlock("entry");
    fn.addBlock("outer");
    Block *inner = fn.addBlock("inner");
    Block *latch = fn.addBlock("latch");
    Block *exit = fn.addBlock("exit");

    auto cc = makeReg(RegFile::CC, 0, DataType::I64);
    auto r = makeReg(RegFile::VInt, 0, DataType::I64);
    entry->insts.push_back(makeAssign(r, makeConst(0)));
    // inner: self loop
    inner->insts.push_back(makeAssign(cc, makeBin(Op::Lt, r, makeConst(3))));
    inner->insts.push_back(makeCondJump(UnitSide::Int, true, "inner"));
    // latch: back to outer
    latch->insts.push_back(makeAssign(cc, makeBin(Op::Lt, r, makeConst(9))));
    latch->insts.push_back(makeCondJump(UnitSide::Int, true, "outer"));
    exit->insts.push_back(makeReturn());
    fn.recomputeCfg();

    cfg::DominatorTree dt(fn);
    cfg::LoopInfo li(fn, dt);
    ASSERT_EQ(li.loops().size(), 2u);
    EXPECT_EQ(li.loops()[0].header->label(), "inner");
    EXPECT_EQ(li.loops()[1].header->label(), "outer");
    EXPECT_TRUE(li.loops()[1].contains(li.loops()[0].header));
    EXPECT_TRUE(li.isInnermost(li.loops()[0]));
    EXPECT_FALSE(li.isInnermost(li.loops()[1]));
    EXPECT_EQ(li.find(inner), &li.loops()[0]);
    EXPECT_EQ(li.find(latch), nullptr);
}

TEST(Liveness, StraightLine)
{
    Function fn("f");
    Block *b = fn.addBlock("entry");
    auto a = makeReg(RegFile::VInt, 0, DataType::I64);
    auto c = makeReg(RegFile::VInt, 1, DataType::I64);
    auto ret = makeReg(RegFile::Int, 2, DataType::I64);
    b->insts.push_back(makeAssign(a, makeConst(1)));
    b->insts.push_back(makeAssign(c, makeBin(Op::Add, a, makeConst(2))));
    b->insts.push_back(makeAssign(ret, c));
    Inst r = makeReturn();
    r.extraUses.push_back(ret);
    b->insts.push_back(std::move(r));
    fn.recomputeCfg();

    cfg::Liveness lv(fn, scalarTraits());
    // a is live after its def (index 0) and dead after its use (1)
    EXPECT_TRUE(lv.liveAfter(b, 0, {RegFile::VInt, 0}));
    EXPECT_FALSE(lv.liveAfter(b, 1, {RegFile::VInt, 0}));
    EXPECT_TRUE(lv.liveAfter(b, 1, {RegFile::VInt, 1}));
}

TEST(Liveness, LoopCarriedValueLiveAroundBackEdge)
{
    Function fn = makeLoopFunction();
    cfg::Liveness lv(fn, wmTraits());
    Block *header = fn.findBlock("header");
    // the IV is live into the header (used by its own increment)
    EXPECT_TRUE(lv.liveIn(header, {RegFile::VInt, 0}));
    EXPECT_TRUE(lv.liveOut(header, {RegFile::VInt, 0}));
}

TEST(Liveness, CallClobbersCallerSaved)
{
    Function fn("f");
    Block *b = fn.addBlock("entry");
    auto v = makeReg(RegFile::VInt, 0, DataType::I64);
    b->insts.push_back(makeAssign(v, makeConst(7)));
    b->insts.push_back(makeCall("g"));
    auto ret = makeReg(RegFile::Int, 2, DataType::I64);
    b->insts.push_back(makeAssign(ret, v));
    Inst r = makeReturn();
    r.extraUses.push_back(ret);
    b->insts.push_back(std::move(r));
    fn.recomputeCfg();

    auto traits = wmTraits();
    // Call defines every caller-saved register in both files plus CC.
    bool hasR2 = false, hasF2 = false, hasCC = false;
    cfg::forEachDef(b->insts[1], traits, [&](const cfg::RegKey &k) {
        if (k.file == RegFile::Int && k.index == 2)
            hasR2 = true;
        if (k.file == RegFile::Flt && k.index == 2)
            hasF2 = true;
        if (k.file == RegFile::CC)
            hasCC = true;
    });
    EXPECT_TRUE(hasR2);
    EXPECT_TRUE(hasF2);
    EXPECT_TRUE(hasCC);
}

TEST(Liveness, LiveOnEntryWalkAgreesWithSolve)
{
    Function fn = makeLoopFunction();
    auto traits = wmTraits();
    cfg::Liveness lv(fn, traits);
    for (cfg::RegKey k : {cfg::RegKey{RegFile::VInt, 0},
                          cfg::RegKey{RegFile::CC, 0},
                          cfg::RegKey{RegFile::VInt, 9}}) {
        for (auto &b : fn.blocks()) {
            EXPECT_EQ(cfg::liveOnEntry(fn, {b.get()}, k, traits),
                      lv.liveIn(b.get(), k))
                << b->label();
        }
    }
}

TEST(Liveness, CondJumpUsesCc)
{
    Inst j = makeCondJump(UnitSide::Flt, true, "L");
    std::vector<cfg::RegKey> uses;
    cfg::forEachUse(j, [&](const cfg::RegKey &k) { uses.push_back(k); });
    ASSERT_EQ(uses.size(), 1u);
    EXPECT_EQ(uses[0].file, RegFile::CC);
    EXPECT_EQ(uses[0].index, 1);
}
