/**
 * @file
 * Work-counter gate of the loop passes.
 *
 * A loop visit of LICM, recurrence, streaming or strength reduction
 * must cost O(loop): the loop sweep builds one def/use table and then
 * re-scans only the blocks a visit may have edited, and the passes
 * update CFG edges in place instead of relinking the function. The
 * driver reports that work as pass counters (`cfg_recomputes`,
 * `defuse_builds`, `defuse_block_rescans`). This test compiles one
 * function with k streamable loops (stream_loops.h) at k = 16 and
 * k = 48 and pins that the whole-function work is the same at both,
 * and that the re-scans grow no faster than the loops. Instructions
 * carry no ids, so no pass renumbers the function: recurrence's
 * partition dumps work out each reference's lno when they print.
 *
 * The cleanup fixpoint reports the rounds it ran as `cleanup_rounds`
 * under each cleanup label. Those are pinned exactly, on the same
 * function and summed over the nine Table II programs: a change that
 * makes the cleanup need more rounds, or fewer, has to say so here.
 * Register allocation's coloring attempts (`regalloc_attempts`, one
 * more per spilled register) are pinned the same way.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "driver/compiler.h"
#include "programs/programs.h"
#include "stream_loops.h"

namespace {

using namespace wmstream;

struct Work
{
    int64_t cfgRecomputes = 0;
    int64_t defUseBuilds = 0;
    int64_t defUseBlockRescans = 0;
    int64_t cleanupRounds = 0;
    int64_t regallocAttempts = 0;
    int loopsStreamed = 0;
};

/** The work counters of one compile of @p source, summed. */
Work
compileWork(const std::string &source, rtl::MachineKind target)
{
    driver::CompileOptions opts;
    opts.target = target;
    opts.profilePasses = true;
    driver::CompileResult cr = driver::compileSource(source, opts);
    EXPECT_TRUE(cr.ok) << cr.diagnostics;
    Work w;
    for (const obs::PassProfile &p : cr.passProfiles) {
        for (const auto &[key, value] : p.counters) {
            if (key == "cfg_recomputes")
                w.cfgRecomputes += value;
            else if (key == "defuse_builds")
                w.defUseBuilds += value;
            else if (key == "defuse_block_rescans")
                w.defUseBlockRescans += value;
            else if (key == "cleanup_rounds")
                w.cleanupRounds += value;
            else if (key == "regalloc_attempts")
                w.regallocAttempts += value;
        }
    }
    for (const auto &sr : cr.streamingReports)
        w.loopsStreamed += sr.loopsStreamed;
    return w;
}

Work
compileWork(int loops, rtl::MachineKind target)
{
    return compileWork(streamLoopsSource(loops), target);
}

class LoopWork : public testing::TestWithParam<rtl::MachineKind>
{};

TEST_P(LoopWork, WholeFunctionWorkIsFlatInTheLoopCount)
{
    Work w16 = compileWork(16, GetParam());
    Work w48 = compileWork(48, GetParam());
    if (GetParam() == rtl::MachineKind::WM) {
        // Every loop streamed: the passes did their per-loop work.
        EXPECT_EQ(w16.loopsStreamed, 17);
        EXPECT_EQ(w48.loopsStreamed, 49);
    }
    EXPECT_GT(w16.defUseBuilds, 0);
    EXPECT_EQ(w16.defUseBuilds, w48.defUseBuilds);
    EXPECT_GT(w16.cfgRecomputes, 0);
    EXPECT_EQ(w16.cfgRecomputes, w48.cfgRecomputes);
    // Re-scans are per changed visit and so per loop: at 3x the loops
    // there are at most 3x as many.
    EXPECT_GT(w16.defUseBlockRescans, 0);
    EXPECT_LE(w48.defUseBlockRescans * 16, w16.defUseBlockRescans * 48)
        << w48.defUseBlockRescans << " vs " << w16.defUseBlockRescans;
}

TEST_P(LoopWork, CleanupRoundsAreExact)
{
    bool wm = GetParam() == rtl::MachineKind::WM;
    // The loops are independent, so the rounds do not grow with them.
    EXPECT_EQ(compileWork(16, GetParam()).cleanupRounds, wm ? 5 : 6);
    EXPECT_EQ(compileWork(48, GetParam()).cleanupRounds, wm ? 5 : 6);

    int64_t tableII = 0;
    for (const programs::BenchmarkProgram &p : programs::tableIIPrograms())
        tableII += compileWork(p.source, GetParam()).cleanupRounds;
    EXPECT_EQ(tableII, wm ? 81 : 90);
}

TEST_P(LoopWork, RegAllocAttemptsAreExact)
{
    bool wm = GetParam() == rtl::MachineKind::WM;
    // One function, colored at the first attempt at any loop count.
    EXPECT_EQ(compileWork(16, GetParam()).regallocAttempts, 1);
    EXPECT_EQ(compileWork(48, GetParam()).regallocAttempts, 1);

    // Each spill costs one more attempt: whetstone alone takes 37 on
    // WM and 3 (one per function) on 68020.
    int64_t tableII = 0;
    for (const programs::BenchmarkProgram &p : programs::tableIIPrograms())
        tableII += compileWork(p.source, GetParam()).regallocAttempts;
    EXPECT_EQ(tableII, wm ? 54 : 20);
}

INSTANTIATE_TEST_SUITE_P(Targets, LoopWork,
                         testing::Values(rtl::MachineKind::WM,
                                         rtl::MachineKind::Scalar),
                         [](const auto &info) {
                             return info.param == rtl::MachineKind::WM
                                        ? std::string("wm")
                                        : std::string("m68020");
                         });

} // anonymous namespace
