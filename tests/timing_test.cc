/**
 * @file
 * Tests for the scalar executing timing models (Table I substrate).
 */

#include <gtest/gtest.h>

#include "deep_recursion.h"
#include "driver/compiler.h"
#include "programs/programs.h"
#include "rtl/exec.h"
#include "timing/scalar_sim.h"

using namespace wmstream;
using namespace wmstream::rtl;

namespace {

timing::ScalarRunResult
run(const std::string &src, const timing::CostModel &model,
    bool recurrence = true)
{
    driver::CompileOptions opts;
    opts.target = rtl::MachineKind::Scalar;
    opts.recurrence = recurrence;
    auto cr = driver::compileSource(src, opts);
    EXPECT_TRUE(cr.ok) << cr.diagnostics;
    return timing::runScalar(*cr.program, model, 4'000'000'000ull);
}

} // namespace

TEST(Timing, ComputesCorrectResult)
{
    auto res = run("int main(void) { return 6 * 7; }",
                   timing::vax8600Model());
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.returnValue, 42);
    EXPECT_GT(res.cycles, 0);
}

TEST(Timing, CountsMemoryReferences)
{
    auto res = run(R"(
int a[8];
int main(void) {
    int i;
    for (i = 0; i < 8; i++)
        a[i] = i;
    return a[3];
})",
                   timing::m88100Model());
    ASSERT_TRUE(res.ok);
    EXPECT_GE(res.memoryRefs, 9u); // 8 stores + 1 load
}

TEST(Timing, RecurrenceOptReducesCyclesOnEveryModel)
{
    std::string src = programs::livermore5Source(512, 8);
    for (const auto &model :
             {timing::sun3_280Model(), timing::hp9000_345Model(),
              timing::vax8600Model(), timing::m88100Model()}) {
        auto without = run(src, model, /*recurrence=*/false);
        auto with = run(src, model, /*recurrence=*/true);
        ASSERT_TRUE(without.ok && with.ok) << model.name;
        EXPECT_EQ(without.returnValue, with.returnValue) << model.name;
        EXPECT_LT(with.cycles, without.cycles) << model.name;
    }
}

TEST(Timing, ImprovementOrderingMatchesPaper)
{
    // Paper Table I ordering: Sun 3/280 (19) > HP 9000/345 (12) >
    // M88100 (7) > VAX 8600 (6).
    std::string src = programs::livermore5Source(512, 8);
    auto improvement = [&](const timing::CostModel &m) {
        auto without = run(src, m, false);
        auto with = run(src, m, true);
        return (without.cycles - with.cycles) / without.cycles;
    };
    double sun = improvement(timing::sun3_280Model());
    double hp = improvement(timing::hp9000_345Model());
    double m88 = improvement(timing::m88100Model());
    double vax = improvement(timing::vax8600Model());
    EXPECT_GT(sun, hp);
    EXPECT_GT(hp, m88);
    EXPECT_GT(m88, vax);
}

TEST(Timing, MemoryCostDrivesTheEffect)
{
    // Doubling only the memory costs must increase the benefit of
    // removing a load — the mechanism behind Table I's spread.
    std::string src = programs::livermore5Source(256, 8);
    timing::CostModel cheap = timing::vax8600Model();
    timing::CostModel dear = cheap;
    dear.cyclesLoad *= 8;
    dear.cyclesStore *= 8;
    auto improvement = [&](const timing::CostModel &m) {
        auto without = run(src, m, false);
        auto with = run(src, m, true);
        return (without.cycles - with.cycles) / without.cycles;
    };
    EXPECT_GT(improvement(dear), improvement(cheap));
}

TEST(Timing, InstructionBudgetGuardsRunaways)
{
    driver::CompileOptions opts;
    opts.target = rtl::MachineKind::Scalar;
    auto cr = driver::compileSource(
        "int main(void) { for (;;) {} return 0; }", opts);
    ASSERT_TRUE(cr.ok);
    auto res = timing::runScalar(*cr.program, timing::vax8600Model(),
                                 /*maxInsts=*/10000);
    EXPECT_FALSE(res.ok);
}

TEST(Timing, CostClassAttributionSumsToTotals)
{
    auto res = run(programs::dotProductSource(64), timing::sun3_280Model());
    ASSERT_TRUE(res.ok) << res.error;

    double cyc = 0;
    uint64_t insts = 0;
    for (size_t c = 0;
         c < static_cast<size_t>(timing::CostClass::kCount); ++c) {
        cyc += res.cyclesByClass[c];
        insts += res.instsByClass[c];
    }
    EXPECT_NEAR(cyc, res.cycles, 1e-6);
    EXPECT_EQ(insts, res.instsExecuted);
    // The kernel is loads + float multiply-adds; those classes must
    // have been charged.
    EXPECT_GT(res.instsOf(timing::CostClass::Load), 0u);
    EXPECT_GT(res.instsOf(timing::CostClass::FltMul), 0u);
    EXPECT_EQ(res.instsOf(timing::CostClass::Load) +
                  res.instsOf(timing::CostClass::Store),
              res.memoryRefs);
}

TEST(Timing, CounterExportRoundTrips)
{
    auto res = run(programs::dotProductSource(64), timing::sun3_280Model());
    ASSERT_TRUE(res.ok) << res.error;
    obs::CounterRegistry reg;
    res.exportCounters(reg);
    EXPECT_EQ(reg.get("insts_executed"), res.instsExecuted);
    EXPECT_EQ(reg.get("memory_refs"), res.memoryRefs);
    EXPECT_EQ(reg.sumPrefix("insts"), res.instsExecuted);
    // millicycles.* (scaled 1000x) sums back to the weighted total,
    // within rounding of each class.
    double milli = static_cast<double>(reg.sumPrefix("millicycles")) -
                   static_cast<double>(reg.get("millicycles.total"));
    EXPECT_NEAR(milli / 1000.0, res.cycles,
                0.001 * static_cast<double>(
                            timing::CostClass::kCount));
}

TEST(ScalarSim, OversizedGlobalFailsGracefully)
{
    driver::CompileOptions opts;
    opts.target = rtl::MachineKind::Scalar;
    auto cr = driver::compileSource(R"(
int a[9000000];
int main(void) { return 0; }
)",
                                    opts);
    ASSERT_TRUE(cr.ok) << cr.diagnostics;
    auto res = timing::runScalar(*cr.program, timing::sun3_280Model());
    ASSERT_FALSE(res.ok);
    EXPECT_NE(res.error.find("exceeds simulated memory"),
              std::string::npos)
        << res.error;
}

TEST(ScalarSim, StackOverflowFaultsBeforeAnyGlobalIsWritten)
{
    // The same fault and message as WmSim's test of this name. The
    // scalar model does not expose its memory after a run; the program
    // itself returns -1 as soon as its sentinel changes, so a fault
    // instead of a return shows no frame reached the globals.
    driver::CompileOptions opts;
    opts.target = rtl::MachineKind::Scalar;
    auto cr = driver::compileSource(kDeepRecursionSource, opts);
    ASSERT_TRUE(cr.ok) << cr.diagnostics;
    auto res = timing::runScalar(*cr.program, timing::sun3_280Model());
    ASSERT_FALSE(res.ok) << "returned " << res.returnValue;
    EXPECT_EQ(res.error, kStackOverflowMessage);
}

TEST(ScalarSim, TypedAccessTouchesExactlyTheTypeSize)
{
    // The same stores, loads and expected values as
    // WmSim.TypedAccessTouchesExactlyTheTypeSize: both machines share
    // one memory image, so they must agree byte for byte. The top of
    // the image is read from the image of a program with no globals.
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
            Program prog;
            Function *fn = prog.addFunction("main");
            Block *b = fn->addBlock("entry");
            auto r2 = makeReg(RegFile::Int, 2, DataType::I64);
            auto r4 = makeReg(RegFile::Int, 4, DataType::I64);
            auto val = flt ? makeReg(RegFile::Flt, 5, DataType::F64)
                           : makeReg(RegFile::Int, 5, DataType::I64);
            b->insts.push_back(makeAssign(r4, makeConst(addr)));
            b->insts.push_back(makeAssign(
                val, flt ? makeFConst(c.fval) : makeConst(c.ival)));
            b->insts.push_back(makeStore(r4, val, c.type));
            b->insts.push_back(makeLoad(flt ? val : r2, r4, c.type));
            if (flt)
                b->insts.push_back(makeAssign(
                    r2, makeUnRaw(Op::CvtFI,
                                  makeBinRaw(Op::Mul, val, makeFConst(1e9),
                                             DataType::F64),
                                  DataType::I64)));
            b->insts.push_back(makeReturn());
            fn->recomputeCfg();
            prog.layout();
            auto res = timing::runScalar(prog, timing::m88100Model(), 100);
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

TEST(ScalarSim, UnknownGlobalIsAnErrorOnlyWhenExecuted)
{
    // The program of WmSim's test of this name: an operand naming a
    // missing global faults only if it executes.
    auto build = [](bool executed) {
        auto prog = std::make_unique<Program>();
        Function *fn = prog->addFunction("main");
        Block *entry = fn->addBlock("entry");
        entry->insts.push_back(makeAssign(
            makeReg(RegFile::Int, 2, DataType::I64), makeConst(7)));
        if (!executed)
            entry->insts.push_back(makeJump("exit"));
        fn->addBlock("uses_unknown")
            ->insts.push_back(makeAssign(
                makeReg(RegFile::Int, 4, DataType::I64),
                makeSym("nosuch", 8)));
        fn->addBlock("exit")->insts.push_back(makeReturn());
        fn->recomputeCfg();
        prog->layout();
        return prog;
    };
    auto skipped = timing::runScalar(*build(false), timing::sun3_280Model());
    ASSERT_TRUE(skipped.ok) << skipped.error;
    EXPECT_EQ(skipped.returnValue, 7);
    auto executed = timing::runScalar(*build(true), timing::sun3_280Model());
    ASSERT_FALSE(executed.ok);
    EXPECT_EQ(executed.error, "unknown global nosuch");
}
