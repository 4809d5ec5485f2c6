/**
 * @file
 * Tests for the causal critical-path profiler: recorder mechanics
 * (capacity resolution, truncation), the exact-sum attribution
 * invariant over real compiled programs and a fuzz-generated corpus,
 * and the what-if validation criterion — predicted speedup from DAG
 * replay within 10% of the re-simulated speedup on the Table II
 * programs for the deeper-FIFO and zero-latency-SCU scenarios.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "driver/compiler.h"
#include "fuzz/generator.h"
#include "obs/counters.h"
#include "obs/critpath.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "programs/programs.h"
#include "support/rng.h"
#include "wmsim/sim.h"
#include "wmsim/whatif.h"

using namespace wmstream;

namespace {

/** Compile @p src and simulate it with a fresh recorder attached. */
struct RecordedRun
{
    wmsim::SimResult res;
    obs::CritPath cp;
};

void
recordRun(const std::string &src, RecordedRun &out,
          wmsim::SimConfig cfg = {})
{
    driver::CompileOptions opts;
    auto cr = driver::compileSource(src, opts);
    ASSERT_TRUE(cr.ok) << cr.diagnostics;
    cfg.critpath = &out.cp;
    cfg.maxCycles = 20'000'000ull;
    out.res = wmsim::simulate(*cr.program, cfg);
}

/** Exact-sum invariant: attribution partitions the simulated cycles. */
void
checkExactSum(const RecordedRun &r)
{
    ASSERT_TRUE(r.res.ok) << r.res.error;
    auto an = r.cp.analyze();
    ASSERT_TRUE(an.valid);
    EXPECT_EQ(an.totalCycles, r.res.stats.cycles);
    EXPECT_EQ(an.attributed, an.totalCycles);
    uint64_t rowSum = 0;
    for (const auto &row : an.rows)
        rowSum += row.cycles;
    EXPECT_EQ(rowSum, an.totalCycles);
}

} // namespace

TEST(CritPathRecorder, DirectDepsAndBackwardWalk)
{
    // Three events in a chain: 0 @c0 -> 1 @c4 -> end @c10. The walk
    // attributes (4,10] to the end's cause, (0,4] to event 1's, and
    // the root's own cycle 0 to "start".
    obs::CritPath cp;
    uint8_t ua = cp.unit("a");
    uint8_t ub = cp.unit("b");
    uint8_t cx = cp.cause("x");
    uint8_t cy = cp.cause("y");
    int32_t e0 = cp.event(0, ua, -1);
    int32_t e1 = cp.event(4, ua, 7);
    cp.dep(e0, cx, 1.0f);
    int32_t e2 = cp.event(10, ub, -1);
    cp.dep(e1, cy, 1.0f);
    cp.setEnd(e2);

    auto an = cp.analyze();
    ASSERT_TRUE(an.valid);
    EXPECT_EQ(an.totalCycles, 10u);
    EXPECT_EQ(an.attributed, 10u);
    EXPECT_EQ(an.pathLength, 2u);
    ASSERT_EQ(an.rows.size(), 3u);
    // Sorted by cycles descending: (b,y,-1)=6, (a,x,7)=4, (a,start)=0.
    EXPECT_EQ(an.rows[0].unit, ub);
    EXPECT_EQ(an.rows[0].cause, cy);
    EXPECT_EQ(an.rows[0].cycles, 6u);
    EXPECT_EQ(an.rows[1].unit, ua);
    EXPECT_EQ(an.rows[1].cause, cx);
    EXPECT_EQ(an.rows[1].loop, 7);
    EXPECT_EQ(an.rows[1].cycles, 4u);
    EXPECT_EQ(an.rows[2].cause, obs::CritPath::kCauseStart);
    EXPECT_EQ(an.rows[2].cycles, 0u);
}

TEST(CritPathRecorder, WaitCauseOverridesBindingEdgeCause)
{
    obs::CritPath cp;
    uint8_t u = cp.unit("u");
    uint8_t cx = cp.cause("x");
    uint8_t cw = cp.cause("w");
    int32_t e0 = cp.event(0, u, -1);
    int32_t e1 = cp.event(5, u, -1, cw); // stalled, last cause: w
    cp.dep(e0, cx, 1.0f);
    cp.setEnd(e1);
    auto an = cp.analyze();
    ASSERT_TRUE(an.valid);
    ASSERT_GE(an.rows.size(), 1u);
    EXPECT_EQ(an.rows[0].cause, cw);
    EXPECT_EQ(an.rows[0].cycles, 5u);
}

TEST(CritPathRecorder, CapacityDepResolvesAgainstPops)
{
    // Queue of depth 2. Pushes 0,1 never blocked; push 2 was enabled
    // by pop 0; with one extra slot, push 2 never blocked either.
    obs::CritPath cp;
    uint8_t u = cp.unit("u");
    uint8_t cf = cp.cause("full");
    int q = cp.queue("q", 2, /*dataFifo=*/true);

    int32_t p0 = cp.event(1, u, -1);
    cp.pushDep(q, cf, 1.0f);
    (void)p0;
    int32_t p1 = cp.event(2, u, -1);
    cp.pushDep(q, cf, 1.0f);
    (void)p1;
    int32_t c0 = cp.event(9, u, -1); // pop of push 0, late
    cp.pop(q, c0);
    int32_t p2 = cp.event(9, u, -1); // push 2: freed by c0
    cp.pushDep(q, cf, 1.0f);
    cp.setEnd(p2);

    auto an = cp.analyze();
    ASSERT_TRUE(an.valid);
    // Binding pred of the end is c0 (cycle 9), via the capacity dep.
    EXPECT_EQ(an.totalCycles, 9u);
    EXPECT_EQ(an.attributed, 9u);

    // Replay runs in model time (every dep-free event at t=0), so
    // p2 = t[c0] + 1 = 1. With one extra FIFO slot the capacity dep
    // vanishes and p2 replays at 0.
    obs::CritScenario base;
    base.name = "baseline";
    EXPECT_DOUBLE_EQ(cp.replay(base), 1.0);
    obs::CritScenario deeper;
    deeper.name = "deeper";
    deeper.extraDataFifoDepth = 1;
    EXPECT_DOUBLE_EQ(cp.replay(deeper), 0.0);
}

TEST(CritPathRecorder, TruncationInvalidatesAnalysis)
{
    obs::CritPath cp(/*maxEvents=*/2);
    uint8_t u = cp.unit("u");
    EXPECT_GE(cp.event(0, u, -1), 0);
    EXPECT_GE(cp.event(1, u, -1), 0);
    EXPECT_EQ(cp.event(2, u, -1), -1); // over the cap
    EXPECT_TRUE(cp.truncated());
    cp.setEnd(1);
    EXPECT_FALSE(cp.analyze().valid);
    EXPECT_EQ(cp.replay({}), 0.0);
}

TEST(CritPathSim, ExactSumOnScalarProgram)
{
    RecordedRun r;
    recordRun("int main() { int s; int i; s = 0; for (i = 0; i < 50; "
              "i = i + 1) { s = s + i; } return s; }",
              r);
    checkExactSum(r);
    EXPECT_EQ(r.res.returnValue, 50 * 49 / 2);
}

TEST(CritPathSim, ExactSumOnStreamingProgram)
{
    RecordedRun r;
    recordRun(programs::dotProductSource(512), r);
    checkExactSum(r);
}

TEST(CritPathSim, ExactSumOnLivermore5)
{
    RecordedRun r;
    recordRun(programs::livermore5Source(2000), r);
    checkExactSum(r);
}

TEST(CritPathSim, ExactSumOnTableII)
{
    for (const auto &p : programs::tableIIPrograms()) {
        SCOPED_TRACE(p.name);
        RecordedRun r;
        recordRun(p.source, r);
        checkExactSum(r);
    }
}

namespace {

/** Every counter the stats document exports except occupancy.*. */
std::vector<std::pair<std::string, uint64_t>>
exportedCounters(const wmsim::SimStats &st)
{
    obs::CounterRegistry reg;
    st.exportCounters(reg);
    std::vector<std::pair<std::string, uint64_t>> out;
    for (const auto &e : reg.entries())
        if (e.first.rfind("occupancy.", 0) != 0)
            out.push_back(e);
    return out;
}

/** Simulate @p prog with all four probe sinks on. */
wmsim::SimResult
simulateObserved(const rtl::Program &prog)
{
    obs::TraceWriter trace;
    obs::TimeSeries ts(wmsim::simTimeSeriesChannels(), 64);
    obs::CritPath cp;
    wmsim::SimConfig cfg;
    cfg.collectOccupancy = true;
    cfg.trace = &trace;
    cfg.timeseries = &ts;
    cfg.critpath = &cp;
    auto res = wmsim::simulate(prog, cfg);
    EXPECT_GT(trace.eventCount(), 0u);
    EXPECT_GT(cp.eventCount(), 0u);
    EXPECT_FALSE(res.stats.occupancy.empty());
    return res;
}

} // namespace

TEST(CritPathSim, RecordingDoesNotChangeTiming)
{
    // The probe sinks are passive: with occupancy, trace, time series
    // and critical path all on, every exported counter but the
    // occupancy histograms matches the sink-free run, on every Table II
    // program with streaming off and on.
    for (const auto &p : programs::tableIIPrograms())
        for (bool streaming : {false, true}) {
            SCOPED_TRACE(p.name + (streaming ? " streamed" : " base"));
            driver::CompileOptions opts;
            opts.streaming = streaming;
            auto cr = driver::compileSource(p.source, opts);
            ASSERT_TRUE(cr.ok) << cr.diagnostics;
            auto base = wmsim::simulate(*cr.program);
            ASSERT_TRUE(base.ok) << base.error;
            auto observed = simulateObserved(*cr.program);
            ASSERT_TRUE(observed.ok) << observed.error;
            EXPECT_EQ(base.returnValue, observed.returnValue);
            EXPECT_EQ(exportedCounters(base.stats),
                      exportedCounters(observed.stats));
        }

    // A deadlocking run leaves through the same exit path with and
    // without sinks: same fault, message and stats.
    driver::CompileOptions opts;
    opts.injectStreamCountBug = true;
    auto cr = driver::compileSource(R"(
int a[64]; int b[64]; int c[64];
int main(void) {
    int i;
    for (i = 0; i < 64; i = i + 1)
        a[i] = b[i] + c[i];
    return 0;
})",
                                    opts);
    ASSERT_TRUE(cr.ok) << cr.diagnostics;
    auto base = wmsim::simulate(*cr.program);
    auto observed = simulateObserved(*cr.program);
    EXPECT_EQ(base.fault, wmsim::SimFault::Deadlock);
    EXPECT_EQ(observed.fault, base.fault);
    EXPECT_EQ(observed.error, base.error);
    EXPECT_EQ(observed.faultReport.message, base.faultReport.message);
    EXPECT_EQ(exportedCounters(base.stats),
              exportedCounters(observed.stats));
}

TEST(CritPathSim, ExactSumOnFuzzCorpus)
{
    // 200 generator programs: the sum invariant must hold on every
    // WM-compilable one (the same corpus shape the wmfuzz smoke in CI
    // runs). Failures here mean a recorded dep points forward in time
    // or a push/pop site went unrecorded.
    support::Rng rng(0xC417'BA7Bull);
    int ran = 0;
    for (int i = 0; i < 200; ++i) {
        auto spec = fuzz::generateSpec(rng);
        std::string src = fuzz::renderProgram(spec);
        SCOPED_TRACE("program " + std::to_string(i));
        driver::CompileOptions opts;
        auto cr = driver::compileSource(src, opts);
        if (!cr.ok)
            continue;
        obs::CritPath cp;
        wmsim::SimConfig cfg;
        cfg.critpath = &cp;
        cfg.maxCycles = 20'000'000ull;
        auto res = wmsim::simulate(*cr.program, cfg);
        if (!res.ok)
            continue; // fault paths checked separately
        auto an = cp.analyze();
        ASSERT_TRUE(an.valid);
        ASSERT_EQ(an.totalCycles, res.stats.cycles);
        ASSERT_EQ(an.attributed, an.totalCycles);
        ++ran;
    }
    EXPECT_GT(ran, 100); // the corpus must mostly compile and run
}

TEST(CritPathSim, EndEventMarkedOnFaultedRun)
{
    // An infinite loop livelocks at maxCycles; the recorder must
    // still get its end event so the partial DAG is analyzable.
    driver::CompileOptions opts;
    auto cr = driver::compileSource(
        "int main() { int i; i = 0; while (1) { i = i + 1; } "
        "return i; }",
        opts);
    ASSERT_TRUE(cr.ok) << cr.diagnostics;
    obs::CritPath cp;
    wmsim::SimConfig cfg;
    cfg.critpath = &cp;
    cfg.maxCycles = 20'000;
    auto res = wmsim::simulate(*cr.program, cfg);
    ASSERT_FALSE(res.ok);
    EXPECT_EQ(res.fault, wmsim::SimFault::Livelock);
    auto an = cp.analyze();
    ASSERT_TRUE(an.valid);
    EXPECT_EQ(an.totalCycles, res.stats.cycles);
    EXPECT_EQ(an.attributed, an.totalCycles);
}

namespace {

/**
 * Run the what-if validation protocol for one program and scenario:
 * predict speedup by replaying the DAG, measure it by re-simulating
 * with the scenario's SimConfig, and return the relative error.
 */
double
whatIfError(const std::string &src, const std::string &scenario)
{
    driver::CompileOptions opts;
    auto cr = driver::compileSource(src, opts);
    EXPECT_TRUE(cr.ok) << cr.diagnostics;
    if (!cr.ok)
        return 0.0;

    obs::CritPath cp;
    wmsim::SimConfig base;
    base.critpath = &cp;
    auto res = wmsim::simulate(*cr.program, base);
    EXPECT_TRUE(res.ok) << res.error;
    if (!res.ok)
        return 0.0;

    wmsim::SimConfig plain; // critpath cleared for re-simulation
    auto whatIfs = wmsim::critPathWhatIfs(plain);
    for (const auto &w : whatIfs) {
        if (w.name != scenario)
            continue;
        EXPECT_TRUE(w.validatable);
        double baseModel = cp.replay({});
        double scenModel = cp.replay(w.replay);
        EXPECT_GT(baseModel, 0.0);
        EXPECT_GT(scenModel, 0.0);
        double predicted = baseModel / scenModel;

        auto re = wmsim::simulate(*cr.program, w.resim);
        EXPECT_TRUE(re.ok) << re.error;
        EXPECT_EQ(re.returnValue, res.returnValue);
        double measured = static_cast<double>(res.stats.cycles) /
                          static_cast<double>(re.stats.cycles);
        return std::fabs(predicted - measured) / measured;
    }
    ADD_FAILURE() << "scenario not found: " << scenario;
    return 0.0;
}

} // namespace

TEST(CritPathWhatIf, FifoDepthPredictionWithinTenPercent)
{
    for (const auto &p : programs::tableIIPrograms()) {
        SCOPED_TRACE(p.name);
        double err = whatIfError(p.source, "fifo_depth_plus_8");
        EXPECT_LE(err, 0.10) << "relative error " << err;
    }
}

TEST(CritPathWhatIf, ZeroLatencyScuPredictionWithinTenPercent)
{
    for (const auto &p : programs::tableIIPrograms()) {
        SCOPED_TRACE(p.name);
        double err = whatIfError(p.source, "zero_latency_scu");
        EXPECT_LE(err, 0.10) << "relative error " << err;
    }
}
