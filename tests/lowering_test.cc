/**
 * @file
 * Tests for WM FIFO-form lowering, the register allocator, and the
 * assembly printers.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "driver/compiler.h"
#include "frontend/parser.h"
#include "interp/interp.h"
#include "wmsim/sim.h"
#include "m68k/printer.h"
#include "opt/passes.h"
#include "programs/programs.h"
#include "wm/lowering.h"
#include "wm/printer.h"

using namespace wmstream;
using namespace wmstream::rtl;

namespace {

bool
anyVirtualRegs(const Function &fn)
{
    bool found = false;
    for (const auto &b : fn.blocks()) {
        for (const Inst &inst : b->insts) {
            auto scan = [&](const ExprPtr &e) {
                if (!e)
                    return;
                forEachNode(e, [&](const Expr &n) {
                    if (n.kind() == Expr::Kind::Reg &&
                            isVirtualFile(n.regFile()))
                        found = true;
                });
            };
            scan(inst.dst);
            scan(inst.src);
            scan(inst.addr);
            scan(inst.count);
            for (const auto &e : inst.extraUses)
                scan(e);
        }
    }
    return found;
}

} // namespace

TEST(RegAlloc, NoVirtualRegistersSurvive)
{
    for (auto kind : {MachineKind::WM, MachineKind::Scalar}) {
        driver::CompileOptions opts;
        opts.target = kind;
        auto cr = driver::compileSource(programs::livermore5Source(32),
                                        opts);
        ASSERT_TRUE(cr.ok);
        for (const auto &fn : cr.program->functions())
            EXPECT_FALSE(anyVirtualRegs(*fn)) << fn->name();
    }
}

TEST(RegAlloc, SpillsUnderPressureAndStaysCorrect)
{
    // Force high register pressure: many simultaneously live values.
    std::string src = R"(
int main(void) {
    int a0,a1,a2,a3,a4,a5,a6,a7,a8,a9;
    int b0,b1,b2,b3,b4,b5,b6,b7,b8,b9;
    int c0,c1,c2,c3,c4,c5,c6,c7,c8,c9;
    a0=1;a1=2;a2=3;a3=4;a4=5;a5=6;a6=7;a7=8;a8=9;a9=10;
    b0=11;b1=12;b2=13;b3=14;b4=15;b5=16;b6=17;b7=18;b8=19;b9=20;
    c0=21;c1=22;c2=23;c3=24;c4=25;c5=26;c6=27;c7=28;c8=29;c9=30;
    return a0+a1+a2+a3+a4+a5+a6+a7+a8+a9
         + b0+b1+b2+b3+b4+b5+b6+b7+b8+b9
         + c0+c1+c2+c3+c4+c5+c6+c7+c8+c9
         + a0*b0 + a1*b1 + c0*c9 + a9*b9;
}
)";
    driver::CompileOptions opts;
    auto cr = driver::compileSource(src, opts);
    ASSERT_TRUE(cr.ok);
    auto res = wmsim::simulate(*cr.program);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.returnValue, 465 + 11 + 24 + 630 + 200);
}

TEST(RegAlloc, ValuesSurviveCalls)
{
    // A value live across a call must land in a callee-saved register
    // (or be spilled); either way the result is correct.
    std::string src = R"(
int id(int x) { return x; }
int main(void) {
    int a, b, c;
    a = 11;
    b = id(5);
    c = a + b;   /* a lived across the call */
    return c;
}
)";
    driver::CompileOptions opts;
    auto cr = driver::compileSource(src, opts);
    ASSERT_TRUE(cr.ok);
    auto res = wmsim::simulate(*cr.program);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.returnValue, 16);
}

TEST(RegAlloc, AttemptCapFailsWithoutPanicking)
{
    // With one allocatable integer register, `d := a + b` needs both
    // operands live at once in any coloring: every attempt spills
    // again, and the call gives up at the cap instead of panicking.
    MachineTraits traits = wmTraits();
    traits.lastAllocatableInt = traits.firstAllocatable;
    Function fn("f");
    Block *b = fn.addBlock("entry");
    auto va = fn.newVReg(DataType::I64);
    auto vb = fn.newVReg(DataType::I64);
    auto vd = fn.newVReg(DataType::I64);
    b->insts.push_back(makeAssign(va, makeConst(1)));
    b->insts.push_back(makeAssign(vb, makeConst(2)));
    b->insts.push_back(makeAssign(vd, makeBin(Op::Add, va, vb)));
    Inst ret = makeReturn();
    ret.extraUses.push_back(vd);
    b->insts.push_back(ret);
    fn.recomputeCfg();

    opt::RegAllocResult ra;
    EXPECT_NO_THROW(ra = opt::runRegAlloc(fn, traits));
    EXPECT_FALSE(ra.allocated);
    EXPECT_EQ(ra.attempts, opt::kRegAllocAttemptCap);
}

namespace {

/** Counter @p key of the driver's `lower-fifo` pass profile. */
int64_t
loweringCounter(const driver::CompileResult &cr, const std::string &key)
{
    for (const obs::PassProfile &p : cr.passProfiles)
        if (p.name == "lower-fifo")
            for (const auto &[k, value] : p.counters)
                if (k == key)
                    return value;
    return -1;
}

} // namespace

TEST(Lowering, SplitsLoadsAndStores)
{
    driver::CompileOptions opts;
    opts.profilePasses = true;
    auto cr = driver::compileSource(programs::livermore5Source(32), opts);
    ASSERT_TRUE(cr.ok);
    EXPECT_GT(loweringCounter(cr, "loads_lowered") +
                  loweringCounter(cr, "stores_lowered"),
              0);
    // After lowering, every Load's dst and Store's src is a FIFO reg.
    Function *fn = cr.program->findFunction("main");
    for (const auto &b : fn->blocks()) {
        for (const Inst &inst : b->insts) {
            if (inst.kind == InstKind::Load) {
                EXPECT_LE(inst.dst->regIndex(), 1) << inst.str();
            }
            if (inst.kind == InstKind::Store) {
                EXPECT_LE(inst.src->regIndex(), 1) << inst.str();
            }
        }
    }
}

TEST(Lowering, FoldsDequeuesAndEnqueues)
{
    driver::CompileOptions opts;
    opts.profilePasses = true;
    opts.streaming = false;
    auto cr = driver::compileSource(programs::livermore5Source(32), opts);
    ASSERT_TRUE(cr.ok);
    // The LL5 kernel folds at least one dequeue into the compute and
    // the store-data enqueue into the producing instruction.
    EXPECT_GT(loweringCounter(cr, "dequeues_folded"), 0);
    EXPECT_GT(loweringCounter(cr, "enqueues_folded"), 0);
}

/**
 * A register-assigned function of three blocks for the lowering
 * peepholes: dequeue and enqueue folds in two blocks, a dequeue whose
 * value is live into another block, and a dequeue whose use sits past
 * an enqueue to the same register number (f0 in, f0 out), as streamed
 * loops produce.
 */
Function
foldingFunction()
{
    auto r = [](int i) { return makeReg(RegFile::Int, i, DataType::I64); };
    auto f = [](int i) { return makeReg(RegFile::Flt, i, DataType::F64); };
    Function fn("fold");
    Block *entry = fn.addBlock("entry");
    Block *loop = fn.addBlock("loop");
    Block *exit = fn.addBlock("exit");

    entry->insts.push_back(makeLoad(f(5), r(20), DataType::F64));
    entry->insts.push_back(makeAssign(f(6), makeBin(Op::Mul, f(5), f(20))));
    entry->insts.push_back(makeStore(r(21), f(6), DataType::F64));
    entry->insts.push_back(makeLoad(r(9), r(22), DataType::I64));

    loop->insts.push_back(makeAssign(f(8), f(0), "stream dequeue"));
    loop->insts.push_back(makeAssign(f(0), f(9), "stream enqueue"));
    loop->insts.push_back(makeAssign(f(10), makeBin(Op::Add, f(8), f(21))));
    loop->insts.push_back(makeAssign(f(12), f(0), "live out"));
    loop->insts.push_back(makeAssign(f(13), makeBin(Op::Mul, f(12), f(10))));
    loop->insts.push_back(makeStore(r(23), f(13), DataType::F64));
    loop->insts.push_back(makeLoad(r(5), r(24), DataType::I64));
    loop->insts.push_back(makeAssign(r(7), makeBin(Op::Add, r(5), r(9))));
    loop->insts.push_back(makeStore(r(25), r(7), DataType::I64));
    loop->insts.push_back(makeAssign(r(9), makeBin(Op::Sub, r(9),
                                                   makeConst(1))));
    loop->insts.push_back(makeAssign(makeReg(RegFile::CC, 0, DataType::I32),
                                     makeBin(Op::Gt, r(9), makeConst(0))));
    loop->insts.push_back(makeCondJump(UnitSide::Int, true, "loop"));

    exit->insts.push_back(makeAssign(f(2), makeBin(Op::Add, f(12), f(10))));
    Inst ret = makeReturn();
    ret.extraUses.push_back(f(2));
    exit->insts.push_back(std::move(ret));
    fn.recomputeCfg();
    return fn;
}

TEST(Lowering, FoldsAcrossBlocksWithOneLivenessSolve)
{
    Function fn = foldingFunction();
    auto report = wm::lowerToFifoForm(fn, wmTraits());
    EXPECT_EQ(report.loadsLowered, 3);
    EXPECT_EQ(report.storesLowered, 3);
    EXPECT_EQ(report.dequeuesFolded, 3);
    EXPECT_EQ(report.enqueuesFolded, 3);
    // f8's dequeue moves past the enqueue to f0 (the output queue of
    // that name); r9 and f12 are live into later blocks and stay.
    EXPECT_EQ(fn.str(), R"(function fold (frame 0):
entry:
    f[0] := F64[r[20]]
    f[0] := (f[0]*f[20])    -- enqueue store data
    F64[r[21]] := f[0]
    r[0] := M64[r[22]]
    r[9] := r[0]    -- dequeue
loop:
    f[0] := f[9]    -- stream enqueue
    f[10] := (f[0]+f[21])
    f[12] := f[0]    -- live out
    f[0] := (f[12]*f[10])    -- enqueue store data
    F64[r[23]] := f[0]
    r[0] := M64[r[24]]
    r[0] := (r[0]+r[9])    -- enqueue store data
    M64[r[25]] := r[0]
    r[9] := (r[9]-1)
    cc[0] := (r[9]>0)
    jumpTi loop
exit:
    f[2] := (f[12]+f[10])
    return
)");
}

TEST(Lowering, NoFoldIntoAUseThatReadsTheQueue)
{
    // Unstreamed, `y = a[i]` dequeues a[i] before `b[i] - y` reads
    // b[i] from the same queue. Folding y's dequeue into that use
    // (`f0 - f0`) would hand the a element to the b operand and return
    // -252.
    std::string src = R"(
int main(void) {
    double a[8];
    double b[8];
    double s;
    double y;
    int i;
    for (i = 0; i < 8; i = i + 1) {
        a[i] = i;
        b[i] = 10 * i;
    }
    s = 0.0;
    for (i = 0; i < 8; i = i + 1) {
        y = a[i];
        s = s + (b[i] - y);
    }
    return s;
}
)";
    DiagEngine diag;
    auto unit = frontend::parseAndCheck(src, diag);
    ASSERT_TRUE(unit != nullptr) << diag.str();
    interp::Interpreter in(*unit);
    auto oracle = in.run();
    ASSERT_TRUE(oracle.ok) << oracle.error;
    ASSERT_EQ(oracle.returnValue, 252);

    for (bool streaming : {true, false}) {
        for (bool recurrence : {true, false}) {
            driver::CompileOptions opts;
            opts.streaming = streaming;
            opts.recurrence = recurrence;
            auto cr = driver::compileSource(src, opts);
            ASSERT_TRUE(cr.ok) << cr.diagnostics;
            auto res = wmsim::simulate(*cr.program);
            ASSERT_TRUE(res.ok) << res.error;
            EXPECT_EQ(res.returnValue, oracle.returnValue)
                << "streaming=" << streaming
                << " recurrence=" << recurrence;
        }
    }
}

TEST(WmPrinter, OpcodeMnemonics)
{
    EXPECT_EQ(wm::opcodeOf(makeLoad(makeReg(RegFile::Flt, 0, DataType::F64),
                                    makeReg(RegFile::Int, 4,
                                            DataType::I64),
                                    DataType::F64)),
              "l64f");
    EXPECT_EQ(wm::opcodeOf(makeStore(makeReg(RegFile::Int, 4,
                                             DataType::I64),
                                     makeReg(RegFile::Flt, 0,
                                             DataType::F64),
                                     DataType::F64)),
              "s64f");
    EXPECT_EQ(wm::opcodeOf(makeCondJump(UnitSide::Int, true, "L")),
              "JumpIT");
    EXPECT_EQ(wm::opcodeOf(makeCondJump(UnitSide::Int, false, "L")),
              "JumpIF");
    EXPECT_EQ(wm::opcodeOf(makeJumpStream(UnitSide::Flt, 1, "L")),
              "JNIf1");
    auto base = makeReg(RegFile::Int, 4, DataType::I64);
    auto cnt = makeReg(RegFile::Int, 5, DataType::I64);
    EXPECT_EQ(wm::opcodeOf(makeStreamIn(UnitSide::Flt, 0, base, cnt, 8,
                                        DataType::F64)),
              "SinD");
    EXPECT_EQ(wm::opcodeOf(makeStreamOut(UnitSide::Int, 0, base, cnt, 1,
                                         DataType::I8)),
              "SoutB");
    // literal materialization is the llh/sll pair
    EXPECT_EQ(wm::opcodeOf(makeAssign(makeReg(RegFile::Int, 3,
                                              DataType::I64),
                                      makeSym("x"))),
              "llh/sll");
}

TEST(WmPrinter, Livermore5ListingMentionsStreams)
{
    driver::CompileOptions opts;
    auto cr = driver::compileSource(programs::livermore5Source(64), opts);
    ASSERT_TRUE(cr.ok);
    std::string listing =
        wm::printFunction(*cr.program->findFunction("main"));
    EXPECT_NE(listing.find("SinD"), std::string::npos);
    EXPECT_NE(listing.find("SoutD"), std::string::npos);
    EXPECT_NE(listing.find("JNIf"), std::string::npos);
}

TEST(WmPrinter, Figure7LoadsEachStreamBaseInOneInstruction)
{
    // The Figure 7 compile: the instruction right before each stream
    // start loads its first-element address, offset included.
    driver::CompileOptions opts;
    auto cr = driver::compileSource(programs::livermore5Source(100), opts);
    ASSERT_TRUE(cr.ok);
    std::string listing =
        wm::printFunction(*cr.program->findFunction("main"));
    std::istringstream in(listing);
    std::string prev, line;
    int streams = 0;
    for (; std::getline(in, line); prev = line) {
        if (line.find(" SinD ") == std::string::npos &&
            line.find(" SoutD ") == std::string::npos)
            continue;
        ++streams;
        EXPECT_NE(prev.find("llh/sll"), std::string::npos)
            << prev << "\nin:\n" << listing;
    }
    EXPECT_EQ(streams, 5) << listing;
    EXPECT_NE(listing.find(":= _z+16"), std::string::npos) << listing;
}

TEST(M68kPrinter, AutoIncrementAppearsAfterStrengthReduction)
{
    driver::CompileOptions opts;
    opts.target = MachineKind::Scalar;
    auto cr = driver::compileSource(programs::livermore5Source(64), opts);
    ASSERT_TRUE(cr.ok);
    std::string listing =
        m68k::printFunction(*cr.program->findFunction("main"));
    // the paper's Figure 6 signature: fmoved with post-increment and
    // the fsubx/fmulx pair
    EXPECT_NE(listing.find("@+"), std::string::npos) << listing;
    EXPECT_NE(listing.find("fsubx"), std::string::npos);
    EXPECT_NE(listing.find("fmulx"), std::string::npos);
    EXPECT_NE(listing.find("fmoved"), std::string::npos);
}

TEST(M68kPrinter, Figure6HasNoSelfMovesAndOneLeaPerOffsetBase)
{
    // The Figure 6 compile: after strength reduction the cleanup
    // fixpoint folds the pointer copy into its lea, and the +16
    // offset into the lea's symbol.
    driver::CompileOptions opts;
    opts.target = MachineKind::Scalar;
    opts.recurrence = true;
    auto cr = driver::compileSource(programs::livermore5Source(100), opts);
    ASSERT_TRUE(cr.ok);
    std::string listing =
        m68k::printFunction(*cr.program->findFunction("main"));
    for (int a = 0; a < 8; ++a) {
        std::string self = "movl a" + std::to_string(a) + ",a" +
                           std::to_string(a);
        EXPECT_EQ(listing.find(self), std::string::npos)
            << self << " in:\n" << listing;
    }
    for (const char *sym : {"_x", "_y", "_z"})
        EXPECT_NE(listing.find(std::string("lea (") + sym + "+16),a"),
                  std::string::npos)
            << sym << " in:\n" << listing;
    EXPECT_EQ(listing.find("addl #16,a"), std::string::npos) << listing;
}

TEST(M68kPrinter, NoPlaceholderAddressModes)
{
    driver::CompileOptions opts;
    opts.target = MachineKind::Scalar;
    auto cr = driver::compileSource(programs::livermore5Source(64), opts);
    ASSERT_TRUE(cr.ok);
    std::string listing =
        m68k::printFunction(*cr.program->findFunction("main"));
    EXPECT_EQ(listing.find('<'), std::string::npos)
        << "unlowered address mode in:\n" << listing;
}

TEST(M68kPrinter, EachFloatRegisterHasItsOwnName)
{
    // The 68020 traits allocate up to 30 registers per file, and
    // whetstone's main uses more than eight float registers: the
    // listing names each one apart, so no two print as one.
    driver::CompileOptions opts;
    opts.target = MachineKind::Scalar;
    auto cr =
        driver::compileSource(programs::programSource("whetstone"), opts);
    ASSERT_TRUE(cr.ok);
    const Function &fn = *cr.program->findFunction("main");
    std::set<int> regs;
    for (const auto &b : fn.blocks())
        for (const Inst &inst : b->insts)
            for (const ExprPtr &e : {inst.dst, inst.src, inst.addr})
                forEachNode(e, [&](const Expr &n) {
                    if (n.kind() == Expr::Kind::Reg &&
                            n.regFile() == RegFile::Flt &&
                            n.regIndex() != 31)
                        regs.insert(n.regIndex());
                });
    std::string listing = m68k::printFunction(fn);
    std::set<std::string> names;
    for (size_t at = listing.find("fp"); at != std::string::npos;
         at = listing.find("fp", at + 2)) {
        size_t end = at + 2;
        while (end < listing.size() && std::isdigit(listing[end]))
            ++end;
        if (end > at + 2)
            names.insert(listing.substr(at, end - at));
    }
    EXPECT_GT(regs.size(), 8u);
    EXPECT_EQ(names.size(), regs.size()) << listing;
}

TEST(M68kPrinter, TwoAddressFormKeepsTheSecondOperand)
{
    // d := a op d must read d before the two-address form overwrites
    // it: a commutative op takes a as its source, and a - d becomes
    // -d + a.
    Function fn("f");
    Block *b = fn.addBlock("entry");
    ExprPtr d = makeReg(RegFile::Int, 2, DataType::I64);
    ExprPtr a = makeReg(RegFile::Int, 1, DataType::I64);
    ExprPtr fd = makeReg(RegFile::Flt, 2, DataType::F64);
    ExprPtr fa = makeReg(RegFile::Flt, 1, DataType::F64);
    for (Op op : {Op::Add, Op::Mul, Op::Sub, Op::And})
        b->insts.push_back(
            makeAssign(d, makeBinRaw(op, a, d, DataType::I64)));
    for (Op op : {Op::Add, Op::Mul, Op::Sub})
        b->insts.push_back(
            makeAssign(fd, makeBinRaw(op, fa, fd, DataType::F64)));
    b->insts.push_back(makeReturn());
    fn.recomputeCfg();

    std::istringstream in(m68k::printFunction(fn));
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) {
        line.erase(line.find_last_not_of(' ') + 1);
        if (line.rfind("    ", 0) == 0)
            lines.push_back(line.substr(4));
    }
    std::vector<std::string> expected = {
        "addl d1,d0",  "mulsl d1,d0",  "negl d0; addl d1,d0",
        "andl d1,d0",  "faddx fp1,fp0", "fmulx fp1,fp0",
        "fnegx fp0; faddx fp1,fp0", "rts"};
    EXPECT_EQ(lines, expected);
}
