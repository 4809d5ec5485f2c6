/**
 * @file
 * The semantic safety net: every Table-II program, compiled in every
 * configuration for both targets, must return the interpreter's
 * checksum. This is the property that makes the aggressive loop
 * rewrites trustworthy. Each program also runs correctly with its
 * data FIFOs cut to the statically inferred minimal depth.
 */

#include <algorithm>
#include <ostream>

#include <gtest/gtest.h>

#include "driver/compiler.h"
#include "frontend/parser.h"
#include "interp/interp.h"
#include "programs/programs.h"
#include "timing/scalar_sim.h"
#include "verify/verify.h"
#include "wmsim/sim.h"

using namespace wmstream;

namespace wmstream::programs {

// Without a printer gtest dumps the parameter's raw bytes, heap
// pointers included, into the listed test name, so every build would
// register the same tests under different names.
void
PrintTo(const BenchmarkProgram &prog, std::ostream *os)
{
    *os << prog.name;
}

} // namespace wmstream::programs

namespace {

int64_t
oracle(const std::string &src)
{
    DiagEngine diag;
    auto unit = frontend::parseAndCheck(src, diag);
    EXPECT_TRUE(unit != nullptr) << diag.str();
    interp::Interpreter in(*unit);
    auto res = in.run();
    EXPECT_TRUE(res.ok) << res.error;
    return res.returnValue;
}

class DifferentialTest
    : public ::testing::TestWithParam<programs::BenchmarkProgram>
{
};

} // namespace

TEST_P(DifferentialTest, WmAllConfigs)
{
    const auto &prog = GetParam();
    int64_t expect = oracle(prog.source);
    for (bool rec : {false, true}) {
        for (bool stream : {false, true}) {
            driver::CompileOptions opts;
            opts.recurrence = rec;
            opts.streaming = stream;
            auto cr = driver::compileSource(prog.source, opts);
            ASSERT_TRUE(cr.ok) << prog.name << ": " << cr.diagnostics;
            wmsim::SimConfig cfg;
            cfg.maxCycles = 10'000'000ull;
            auto res = wmsim::simulate(*cr.program, cfg);
            ASSERT_TRUE(res.ok)
                << prog.name << " rec=" << rec << " stream=" << stream
                << ": " << res.error;
            EXPECT_EQ(res.returnValue, expect)
                << prog.name << " rec=" << rec << " stream=" << stream;
        }
    }
}

TEST_P(DifferentialTest, InferredFifoDepthSuffices)
{
    // The static analysis claims each program runs without blocking
    // forever once every data FIFO holds minDepth elements. Re-run at
    // exactly that depth: same checksum, no watchdog fault. (The
    // simulated high-water may exceed minDepth: the access side runs
    // ahead as far as the hardware depth lets it.)
    const auto &prog = GetParam();
    int64_t expect = oracle(prog.source);
    for (bool stream : {false, true}) {
        driver::CompileOptions opts;
        opts.streaming = stream;
        auto cr = driver::compileSource(prog.source, opts);
        ASSERT_TRUE(cr.ok) << prog.name << ": " << cr.diagnostics;
        auto fr = verify::analyzeFifoRequirements(*cr.program,
                                                  cr.traits, 8);
        ASSERT_TRUE(fr.deadlockFree)
            << prog.name << " stream=" << stream << ": "
            << fr.findings.str();
        wmsim::SimConfig cfg;
        cfg.maxCycles = 10'000'000ull;
        cfg.dataFifoDepth = std::max(1, fr.minDepth);
        auto res = wmsim::simulate(*cr.program, cfg);
        ASSERT_TRUE(res.ok) << prog.name << " stream=" << stream
                            << " depth=" << cfg.dataFifoDepth << ": "
                            << res.error;
        EXPECT_EQ(res.returnValue, expect)
            << prog.name << " stream=" << stream
            << " depth=" << cfg.dataFifoDepth;
    }
}

TEST_P(DifferentialTest, ScalarBothRecurrenceSettings)
{
    const auto &prog = GetParam();
    int64_t expect = oracle(prog.source);
    auto model = timing::m88100Model();
    for (bool rec : {false, true}) {
        driver::CompileOptions opts;
        opts.target = rtl::MachineKind::Scalar;
        opts.recurrence = rec;
        auto cr = driver::compileSource(prog.source, opts);
        ASSERT_TRUE(cr.ok) << prog.name;
        auto res = timing::runScalar(*cr.program, model,
                                     4'000'000'000ull);
        ASSERT_TRUE(res.ok) << prog.name << ": " << res.error;
        EXPECT_EQ(res.returnValue, expect)
            << prog.name << " rec=" << rec;
    }
}

TEST_P(DifferentialTest, UnoptimizedWmStillCorrect)
{
    const auto &prog = GetParam();
    int64_t expect = oracle(prog.source);
    driver::CompileOptions opts;
    opts.optimize = false;
    opts.recurrence = false;
    opts.streaming = false;
    auto cr = driver::compileSource(prog.source, opts);
    ASSERT_TRUE(cr.ok) << prog.name;
    wmsim::SimConfig cfg;
    cfg.maxCycles = 10'000'000ull;
    auto res = wmsim::simulate(*cr.program, cfg);
    ASSERT_TRUE(res.ok) << prog.name << ": " << res.error;
    EXPECT_EQ(res.returnValue, expect) << prog.name;
}

INSTANTIATE_TEST_SUITE_P(
    TableII, DifferentialTest,
    ::testing::ValuesIn(programs::tableIIPrograms()),
    [](const ::testing::TestParamInfo<programs::BenchmarkProgram> &info) {
        std::string name = info.param.name;
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });
