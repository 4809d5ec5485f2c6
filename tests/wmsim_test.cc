/**
 * @file
 * Unit tests for the WM cycle simulator: decoupled units, FIFOs,
 * condition-code discipline, streams, and memory ordering.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "deep_recursion.h"
#include "driver/compiler.h"
#include "programs/programs.h"
#include "rtl/exec.h"
#include "wmsim/sim.h"

using namespace wmstream;
using namespace wmstream::rtl;

namespace {

wmsim::SimResult
runSrc(const std::string &src, wmsim::SimConfig cfg = {})
{
    driver::CompileOptions opts;
    auto cr = driver::compileSource(src, opts);
    EXPECT_TRUE(cr.ok) << cr.diagnostics;
    cfg.maxCycles = 10'000'000ull;
    return wmsim::simulate(*cr.program, cfg);
}

/** Hand-build a program: one function around the given block filler. */
std::unique_ptr<Program>
handProgram(const std::function<void(Function &, Block *)> &fill)
{
    auto prog = std::make_unique<Program>();
    Function *fn = prog->addFunction("main");
    Block *b = fn->addBlock("entry");
    fill(*fn, b);
    fn->recomputeCfg();
    prog->layout();
    return prog;
}

/**
 * main returns 7. On the way it jumps over, or when @p executed falls
 * into, an instruction whose operand names a global that does not
 * exist.
 */
std::unique_ptr<Program>
unknownGlobalProgram(bool executed)
{
    auto prog = std::make_unique<Program>();
    Function *fn = prog->addFunction("main");
    Block *entry = fn->addBlock("entry");
    entry->insts.push_back(makeAssign(
        makeReg(RegFile::Int, 2, DataType::I64), makeConst(7)));
    if (!executed)
        entry->insts.push_back(makeJump("exit"));
    fn->addBlock("uses_unknown")
        ->insts.push_back(makeAssign(makeReg(RegFile::Int, 4, DataType::I64),
                                     makeSym("nosuch", 8)));
    fn->addBlock("exit")->insts.push_back(makeReturn());
    fn->recomputeCfg();
    prog->layout();
    return prog;
}

} // namespace

TEST(WmSim, ReturnValueInR2)
{
    auto prog = handProgram([](Function &, Block *b) {
        b->insts.push_back(
            makeAssign(makeReg(RegFile::Int, 2, DataType::I64),
                       makeConst(99)));
        b->insts.push_back(makeReturn());
    });
    auto res = wmsim::simulate(*prog);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.returnValue, 99);
}

TEST(WmSim, ZeroRegisterReadsZeroAndDiscardsWrites)
{
    auto prog = handProgram([](Function &, Block *b) {
        auto r31 = makeReg(RegFile::Int, 31, DataType::I64);
        b->insts.push_back(makeAssign(r31, makeConst(123)));
        b->insts.push_back(
            makeAssign(makeReg(RegFile::Int, 2, DataType::I64),
                       makeBin(Op::Add, r31, makeConst(1))));
        b->insts.push_back(makeReturn());
    });
    auto res = wmsim::simulate(*prog);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.returnValue, 1);
}

TEST(WmSim, LoadGoesThroughInputFifo)
{
    auto prog = std::make_unique<Program>();
    auto &g = prog->addGlobal("g", 8, 8);
    g.init.resize(8);
    int64_t v = 777;
    std::memcpy(g.init.data(), &v, 8);
    Function *fn = prog->addFunction("main");
    Block *b = fn->addBlock("entry");
    auto addr = makeReg(RegFile::Int, 4, DataType::I64);
    b->insts.push_back(makeAssign(addr, makeSym("g")));
    // lowered form: address generation to FIFO, then dequeue
    b->insts.push_back(makeLoad(makeReg(RegFile::Int, 0, DataType::I64),
                                addr, DataType::I64));
    b->insts.push_back(
        makeAssign(makeReg(RegFile::Int, 2, DataType::I64),
                   makeReg(RegFile::Int, 0, DataType::I64)));
    b->insts.push_back(makeReturn());
    fn->recomputeCfg();
    prog->layout();
    auto res = wmsim::simulate(*prog);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.returnValue, 777);
}

TEST(WmSim, StorePairsAddressWithEnqueuedData)
{
    auto prog = std::make_unique<Program>();
    prog->addGlobal("g", 8, 8);
    Function *fn = prog->addFunction("main");
    Block *b = fn->addBlock("entry");
    auto addr = makeReg(RegFile::Int, 4, DataType::I64);
    auto r0out = makeReg(RegFile::Int, 0, DataType::I64);
    b->insts.push_back(makeAssign(addr, makeSym("g")));
    b->insts.push_back(makeAssign(r0out, makeConst(55))); // enqueue
    b->insts.push_back(makeStore(addr, r0out, DataType::I64));
    b->insts.push_back(
        makeAssign(makeReg(RegFile::Int, 2, DataType::I64), makeConst(0)));
    b->insts.push_back(makeReturn());
    fn->recomputeCfg();
    prog->layout();
    wmsim::Simulator sim(*prog);
    auto res = sim.run();
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(sim.readInt(prog->globalAddress("g")), 55);
}

TEST(WmSim, ConditionalBranchConsumesCcFifo)
{
    EXPECT_EQ(runSrc(R"(
int main(void) {
    int a;
    a = 5;
    if (a > 3)
        return 1;
    return 2;
})")
                  .returnValue,
              1);
}

TEST(WmSim, MemoryLatencyAffectsScalarCode)
{
    std::string src = programs::dotProductSource(200);
    driver::CompileOptions opts;
    opts.streaming = false;
    auto cr = driver::compileSource(src, opts);
    ASSERT_TRUE(cr.ok);
    wmsim::SimConfig fast, slow;
    fast.memLatency = 1;
    slow.memLatency = 24;
    auto rf = wmsim::simulate(*cr.program, fast);
    auto rs = wmsim::simulate(*cr.program, slow);
    ASSERT_TRUE(rf.ok && rs.ok);
    EXPECT_EQ(rf.returnValue, rs.returnValue);
    EXPECT_GT(rs.stats.cycles, rf.stats.cycles);
}

TEST(WmSim, StreamedCodeToleratesLatencyBetter)
{
    std::string src = programs::dotProductSource(500);
    driver::CompileOptions base, stream;
    base.streaming = false;
    auto crBase = driver::compileSource(src, base);
    auto crStream = driver::compileSource(src, stream);
    wmsim::SimConfig lat;
    lat.memLatency = 24;
    auto rb = wmsim::simulate(*crBase.program, lat);
    auto rs = wmsim::simulate(*crStream.program, lat);
    ASSERT_TRUE(rb.ok && rs.ok);
    EXPECT_EQ(rb.returnValue, rs.returnValue);
    EXPECT_LT(rs.stats.cycles, rb.stats.cycles);
}

TEST(WmSim, StatsCountStreamElements)
{
    auto cr = driver::compileSource(programs::dotProductSource(100), {});
    ASSERT_TRUE(cr.ok);
    auto res = wmsim::simulate(*cr.program);
    ASSERT_TRUE(res.ok);
    // two in-streams of 100 elements each in the kernel
    EXPECT_GE(res.stats.streamElementsIn, 200u);
}

TEST(WmSim, SmallDataFifoStillCorrect)
{
    wmsim::SimConfig cfg;
    cfg.dataFifoDepth = 2;
    auto res = runSrc(programs::livermore5Source(32), cfg);
    ASSERT_TRUE(res.ok) << res.error;
    driver::CompileOptions opts;
    auto noOpt = driver::compileSource(programs::livermore5Source(32),
                                       opts);
    auto big = wmsim::simulate(*noOpt.program);
    EXPECT_EQ(res.returnValue, big.returnValue);
}

TEST(WmSim, SingleMemoryPortStillCorrect)
{
    wmsim::SimConfig cfg;
    cfg.memPorts = 1;
    auto res = runSrc(programs::livermore5Source(32), cfg);
    ASSERT_TRUE(res.ok) << res.error;
}

TEST(WmSim, TinyInstructionQueuesStillCorrect)
{
    wmsim::SimConfig cfg;
    cfg.instQueueDepth = 1;
    auto res = runSrc(programs::livermore5Source(32), cfg);
    ASSERT_TRUE(res.ok) << res.error;
}

TEST(WmSim, DivideByZeroReported)
{
    // the divisor must come from memory so constant folding cannot
    // evaluate the division at compile time
    auto res = runSrc("int z = 0;\nint main(void) { return 7 / z; }");
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("divide"), std::string::npos);
}

TEST(WmSim, RecursionWorks)
{
    auto res = runSrc(R"(
int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
int main(void) { return fact(10); }
)");
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.returnValue, 3628800);
}

TEST(WmSim, ScalarStoreAfterStreamedLoopIsOrdered)
{
    // Regression: a scalar store dispatched right after a streamed
    // loop must not be swallowed as a stream element.
    auto res = runSrc(R"(
int n = 16;
int a[17];
int main(void) {
    int i;
    for (i = 0; i < n; i++)
        a[i] = i;
    a[16] = 999;          /* scalar store right after the stream */
    return a[16] + a[3];
})");
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.returnValue, 1002);
}

TEST(WmSim, ScalarLoadAfterStreamedLoopIsOrdered)
{
    // Regression: the load of the checksum constant must not interleave
    // with in-stream deliveries on the same FIFO.
    auto res = runSrc(R"(
int n = 16;
double x[16];
int main(void) {
    int i;
    double s;
    for (i = 0; i < n; i++)
        x[i] = 1.0 + i;
    s = 0.0;
    for (i = 0; i < n; i++)
        s = s + x[i];
    return s * 16.0;   /* 16.0 loads from the constant pool */
})");
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.returnValue, (16 * 17 / 2) * 16);
}

TEST(WmSim, StallCausesSumToUnitStallTotals)
{
    // Attribution invariant: every IEU/FEU cycle is charged to exactly
    // one of executing, idling, or one stall cause, so the per-cause
    // totals close the cycle count; the IFU stalls at most once a
    // cycle. Streamed and non-streamed.
    for (bool streaming : {false, true}) {
        driver::CompileOptions opts;
        opts.streaming = streaming;
        auto cr =
            driver::compileSource(programs::dotProductSource(64), opts);
        ASSERT_TRUE(cr.ok) << cr.diagnostics;
        auto res = wmsim::simulate(*cr.program);
        ASSERT_TRUE(res.ok) << res.error;
        const wmsim::SimStats &st = res.stats;
        EXPECT_EQ(st.ieuExecuted + st.ieuIdleCycles + st.ieuStalls.total(),
                  st.cycles)
            << "streaming=" << streaming;
        EXPECT_EQ(st.feuExecuted + st.feuIdleCycles + st.feuStalls.total(),
                  st.cycles)
            << "streaming=" << streaming;
        EXPECT_LE(st.ifuStalls.total(), st.cycles)
            << "streaming=" << streaming;
        // Queue-empty cycles are idleness, not stalls: the unit-queue
        // causes must never appear in the IEU/FEU stall breakdown.
        EXPECT_EQ(res.stats.ieuStalls.at(wmsim::StallCause::InstQueueEmpty),
                  0u);
        EXPECT_EQ(res.stats.feuStalls.at(wmsim::StallCause::InstQueueEmpty),
                  0u);
    }
}

TEST(WmSim, MemoryLatencyStallsAttributeToDataFifoEmpty)
{
    // Non-streamed dot product at high memory latency: the FEU burns
    // most of its stalled cycles waiting on load data, which the
    // taxonomy calls data_fifo_empty (the latency is visible as an
    // empty input FIFO at the consumer).
    driver::CompileOptions opts;
    opts.streaming = false;
    auto cr = driver::compileSource(programs::dotProductSource(128), opts);
    ASSERT_TRUE(cr.ok) << cr.diagnostics;
    wmsim::SimConfig cfg;
    cfg.memLatency = 24;
    auto res = wmsim::simulate(*cr.program, cfg);
    ASSERT_TRUE(res.ok) << res.error;
    uint64_t fifoEmpty =
        res.stats.feuStalls.at(wmsim::StallCause::DataFifoEmpty);
    EXPECT_GT(fifoEmpty, 0u);
    EXPECT_GE(2 * fifoEmpty, res.stats.feuStalls.total())
        << "data_fifo_empty should dominate FEU stalls at high latency";
}

TEST(WmSim, OccupancyHistogramsCollectedWhenEnabled)
{
    driver::CompileOptions opts;
    auto cr = driver::compileSource(programs::dotProductSource(64), opts);
    ASSERT_TRUE(cr.ok) << cr.diagnostics;

    auto off = wmsim::simulate(*cr.program);
    ASSERT_TRUE(off.ok) << off.error;
    EXPECT_TRUE(off.stats.occupancy.empty());

    wmsim::SimConfig cfg;
    cfg.collectOccupancy = true;
    auto on = wmsim::simulate(*cr.program, cfg);
    ASSERT_TRUE(on.ok) << on.error;
    ASSERT_FALSE(on.stats.occupancy.empty());
    bool sawFltInFifo = false;
    for (const auto &s : on.stats.occupancy) {
        // One sample per series per cycle.
        EXPECT_EQ(s.hist.count(), on.stats.cycles) << s.name;
        if (s.name == "in_fifo.flt0" && s.hist.max() > 0)
            sawFltInFifo = true;
    }
    EXPECT_TRUE(sawFltInFifo)
        << "streamed dot product must enqueue into the float in-FIFO";
}

TEST(WmSim, TraceWriterReceivesPipelineEvents)
{
    driver::CompileOptions opts;
    auto cr = driver::compileSource(programs::dotProductSource(64), opts);
    ASSERT_TRUE(cr.ok) << cr.diagnostics;
    obs::TraceWriter trace;
    wmsim::SimConfig cfg;
    cfg.trace = &trace;
    auto res = wmsim::simulate(*cr.program, cfg);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_GT(trace.eventCount(), 0u);
    std::string doc = trace.str();
    // At least one event per pipeline unit.
    for (const char *series :
         {"busy.ieu", "busy.feu", "ifu.dispatched", "scu.active",
          "in_fifo.flt0"})
        EXPECT_NE(doc.find(series), std::string::npos) << series;
    // The streamed loops must show up as SCU duration events.
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(doc.find("SCU 0"), std::string::npos);
}

TEST(WmSim, CounterExportMatchesStats)
{
    driver::CompileOptions opts;
    auto cr = driver::compileSource(programs::dotProductSource(64), opts);
    ASSERT_TRUE(cr.ok) << cr.diagnostics;
    auto res = wmsim::simulate(*cr.program);
    ASSERT_TRUE(res.ok) << res.error;
    obs::CounterRegistry reg;
    res.stats.exportCounters(reg);
    EXPECT_EQ(reg.get("cycles"), res.stats.cycles);
    EXPECT_EQ(reg.get("ieu.executed"), res.stats.ieuExecuted);
    EXPECT_EQ(reg.get("feu.stall_cycles"), res.stats.feuStalls.total());
    // The dotted stall namespace sums back to the exported total.
    EXPECT_EQ(reg.sumPrefix("ifu.stall"), reg.get("ifu.stall_cycles"));
    EXPECT_EQ(reg.sumPrefix("ieu.stall"), reg.get("ieu.stall_cycles"));
    EXPECT_EQ(reg.sumPrefix("feu.stall"), reg.get("feu.stall_cycles"));
}

TEST(WmSim, ConstFoldedGlobalInitializersExecute)
{
    // %, comparisons, and logical operators in constant initializers
    // fold at expand time and must survive a full simulation.
    auto res = runSrc(R"(
int g = 7 % 2;
int h = (1 < 2) && (3 > 1);
int k = 10 / (5 - 2);
int main(void) { return g + h + k; }
)");
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.returnValue, 5);
}

TEST(WmSim, OversizedGlobalFailsGracefully)
{
    // A data segment larger than simulated memory must surface as a
    // runtime error, not an assert/abort.
    driver::CompileOptions opts;
    auto cr = driver::compileSource(R"(
int a[9000000];
int main(void) { return 0; }
)",
                                    opts);
    ASSERT_TRUE(cr.ok) << cr.diagnostics;
    auto res = wmsim::simulate(*cr.program);
    ASSERT_FALSE(res.ok);
    EXPECT_EQ(res.fault, wmsim::SimFault::RuntimeError);
    EXPECT_NE(res.error.find("exceeds simulated memory"),
              std::string::npos)
        << res.error;
}

TEST(WmSim, StackOverflowFaultsBeforeAnyGlobalIsWritten)
{
    // The stack lies below the globals, so a recursion past the
    // reservation leaves the image at address 0 and faults there.
    driver::CompileOptions opts;
    auto cr = driver::compileSource(kDeepRecursionSource, opts);
    ASSERT_TRUE(cr.ok) << cr.diagnostics;
    wmsim::Simulator sim(*cr.program);
    auto res = sim.run();
    ASSERT_FALSE(res.ok) << "returned " << res.returnValue;
    EXPECT_EQ(res.fault, wmsim::SimFault::RuntimeError);
    EXPECT_EQ(res.error, kStackOverflowMessage);
    EXPECT_EQ(sim.readInt(cr.program->globalAddress("sentinel")), 12345);
    // Frames of at least 512 bytes: the fault came within the
    // reservation's depth, not from some other bound.
    int64_t depth = sim.readInt(cr.program->globalAddress("depth"));
    EXPECT_GT(depth, 0);
    EXPECT_LE(depth * 512, kStackBytes);
}

TEST(WmSim, TypedAccessTouchesExactlyTheTypeSize)
{
    // Each DataType is stored and loaded back at the last in-bounds
    // address, at the top of the image the machine sizes for a program
    // with no globals; one byte further is out of bounds. The scalar timing
    // model must read the same values (timing_test.cc).
    // Narrow integers keep their low bytes and load zero-extended;
    // F32 rounds 0.1 to float, which shows after scaling by 1e9.
    struct Case
    {
        DataType type;
        int64_t ival;
        double fval;
        int64_t want;
    };
    const Case cases[] = {
        {DataType::I8, 0x1AB, 0, 0xAB},
        {DataType::I16, 0x1BEEF, 0, 0xBEEF},
        {DataType::I32, 0x1DEADBEEF, 0, 0xDEADBEEF},
        {DataType::I64, -5, 0, -5},
        {DataType::F32, 0, 0.1, 100000001},
        {DataType::F64, 0, 0.1, 100000000},
    };
    Program empty;
    empty.layout();
    const int64_t top = static_cast<int64_t>(Executable(empty).mem.size());
    for (const Case &c : cases)
        for (int64_t past : {0, 1}) {
            int64_t addr = top - dataTypeSize(c.type) + past;
            bool flt = isFloatType(c.type);
            auto prog = handProgram([&](Function &, Block *b) {
                auto r4 = makeReg(RegFile::Int, 4, DataType::I64);
                auto fifo = flt ? makeReg(RegFile::Flt, 0, DataType::F64)
                                : makeReg(RegFile::Int, 0, DataType::I64);
                b->insts.push_back(makeAssign(r4, makeConst(addr)));
                b->insts.push_back(makeAssign(
                    fifo, flt ? makeFConst(c.fval) : makeConst(c.ival)));
                b->insts.push_back(makeStore(r4, fifo, c.type));
                b->insts.push_back(makeLoad(fifo, r4, c.type));
                b->insts.push_back(makeAssign(
                    makeReg(RegFile::Int, 2, DataType::I64),
                    flt ? makeUnRaw(Op::CvtFI,
                                    makeBinRaw(Op::Mul, fifo,
                                               makeFConst(1e9),
                                               DataType::F64),
                                    DataType::I64)
                        : fifo));
                b->insts.push_back(makeReturn());
            });
            auto res = wmsim::simulate(*prog);
            if (past) {
                EXPECT_NE(res.error.find("out of bounds"),
                          std::string::npos)
                    << dataTypeName(c.type) << ": " << res.error;
                continue;
            }
            ASSERT_TRUE(res.ok) << dataTypeName(c.type) << ": "
                                << res.error;
            EXPECT_EQ(res.returnValue, c.want) << dataTypeName(c.type);
        }
}

TEST(WmSim, UnknownGlobalIsAnErrorOnlyWhenExecuted)
{
    // Like a jump to an unknown label: decoding the program succeeds,
    // and only executing the operand faults, as a program error.
    auto skipped = wmsim::simulate(*unknownGlobalProgram(false));
    ASSERT_TRUE(skipped.ok) << skipped.error;
    EXPECT_EQ(skipped.returnValue, 7);
    auto executed = wmsim::simulate(*unknownGlobalProgram(true));
    ASSERT_FALSE(executed.ok);
    EXPECT_EQ(executed.fault, wmsim::SimFault::RuntimeError);
    EXPECT_EQ(executed.error, "unknown global nosuch");
}

TEST(WmSim, MemoryInspectionIsBoundsChecked)
{
    auto prog = handProgram([](Function &, Block *b) {
        b->insts.push_back(makeReturn());
    });
    wmsim::Simulator sim(*prog);
    ASSERT_TRUE(sim.run().ok);
    const int64_t top = static_cast<int64_t>(Executable(*prog).mem.size());
    EXPECT_EQ(sim.readInt(top - 8), 0);
    EXPECT_EQ(sim.readDouble(top - 8), 0.0);
    EXPECT_EQ(sim.readByte(top - 1), 0);
    EXPECT_THROW(sim.readByte(top), ExecError);
    EXPECT_THROW(sim.readInt(top - 7), ExecError);
    EXPECT_THROW(sim.readDouble(top - 7), ExecError);
    EXPECT_THROW(sim.readInt(-8), ExecError);
}

TEST(WmSim, QueueDepthsOfOneAndSixtyFourKeepTheirCycleCounts)
{
    // Every FIFO and queue the run loop sizes from SimConfig at its
    // smallest depth and at a depth no program fills. The cycle counts
    // were recorded before the queues became rings; an off-by-one in a
    // ring's capacity or wrap moves them.
    struct Case
    {
        const char *program;
        int depth;
        int64_t ret;
        uint64_t cycles;
    };
    const Case cases[] = {
        {"dot-product", 1, 6078, 64048},
        {"dot-product", 64, 6078, 32045},
        {"bubblesort", 1, 33632, 281718},
        {"bubblesort", 64, 33632, 281569},
    };
    for (const Case &c : cases) {
        auto cr = driver::compileSource(programs::programSource(c.program),
                                        driver::CompileOptions{});
        ASSERT_TRUE(cr.ok) << cr.diagnostics;
        wmsim::SimConfig cfg;
        cfg.dataFifoDepth = cfg.ccFifoDepth = c.depth;
        cfg.instQueueDepth = cfg.storeQueueDepth = c.depth;
        auto res = wmsim::simulate(*cr.program, cfg);
        ASSERT_TRUE(res.ok) << c.program << " depth " << c.depth << ": "
                            << res.error;
        EXPECT_EQ(res.returnValue, c.ret) << c.program << " " << c.depth;
        EXPECT_EQ(res.stats.cycles, c.cycles) << c.program << " " << c.depth;
    }
}
