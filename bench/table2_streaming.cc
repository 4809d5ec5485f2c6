/**
 * @file
 * Table II: execution performance improvements by streaming.
 *
 * The paper compiled nine programs with and without streaming and
 * measured the percent reduction in cycles executed on an exact-cycle
 * WM simulator (including memory delays):
 *
 *     banner 5, bubblesort 18, cal 17, dhrystone 39, dot-product 43,
 *     iir 13, quicksort 1, sieve 18, whetstone 3.
 *
 * This harness runs the mini-C reproductions of those programs (see
 * src/programs) through the same pipeline and the WM cycle simulator.
 *
 * A second table re-simulates each streamed program with the
 * critical-path recorder on (src/obs/critpath). Recording is passive,
 * so the cycle count must equal the streamed column of Table II; the
 * DAG sizes (events, deps) pin the recorder's coverage.
 */

#include "bench/common.h"
#include "obs/critpath.h"
#include "programs/programs.h"

using namespace wmstream;

namespace {

const int kPaperNumbers[] = {5, 18, 17, 39, 43, 13, 1, 18, 3};

/** Prints Table II; returns the streamed cycle count per program. */
std::vector<uint64_t>
printTable(wsbench::JsonReport &report)
{
    std::printf("Table II. Execution Performance improvements by "
                "streaming.\n\n");
    std::printf("%-14s %14s %14s %12s %10s\n", "Program", "base cycles",
                "stream cycles", "measured %", "paper %");
    const auto &programs = programs::tableIIPrograms();
    std::vector<uint64_t> streamCycles;
    for (size_t i = 0; i < programs.size(); ++i) {
        uint64_t cyc[2];
        int64_t ret[2];
        wmsim::SimStats streamedStats;
        for (int s = 0; s < 2; ++s) {
            driver::CompileOptions opts;
            opts.streaming = s != 0;
            auto res = wsbench::runWm(programs[i].source, opts);
            cyc[s] = res.stats.cycles;
            ret[s] = res.returnValue;
            if (s == 1)
                streamedStats = res.stats;
        }
        if (ret[0] != ret[1]) {
            std::fprintf(stderr, "checksum mismatch for %s!\n",
                         programs[i].name.c_str());
            std::abort();
        }
        double measured = wsbench::pctReduction(
            static_cast<double>(cyc[0]), static_cast<double>(cyc[1]));
        std::printf("%-14s %14llu %14llu %12.1f %10d\n",
                    programs[i].name.c_str(),
                    static_cast<unsigned long long>(cyc[0]),
                    static_cast<unsigned long long>(cyc[1]), measured,
                    kPaperNumbers[i]);
        report.row(programs[i].name)
            .num("base_cycles", static_cast<double>(cyc[0]))
            .num("stream_cycles", static_cast<double>(cyc[1]))
            .num("measured_pct", measured)
            .num("paper_pct", kPaperNumbers[i])
            .sim(streamedStats);
        streamCycles.push_back(cyc[1]);
    }
    std::printf("\n");
    return streamCycles;
}

/**
 * The streamed programs again with the scheduling-event DAG recorded:
 * aborts if recording moves a cycle count.
 */
void
printCritPath(const std::vector<uint64_t> &streamCycles,
              wsbench::JsonReport &report)
{
    std::printf("Critical-path recorder on the streamed programs.\n\n");
    std::printf("%-14s %14s %10s %10s\n", "Program", "cycles", "events",
                "deps");
    const auto &programs = programs::tableIIPrograms();
    for (size_t i = 0; i < programs.size(); ++i) {
        obs::CritPath cp;
        wmsim::SimConfig cfg;
        cfg.critpath = &cp;
        auto res = wsbench::runWm(programs[i].source, {}, cfg);
        if (res.stats.cycles != streamCycles[i]) {
            std::fprintf(stderr,
                         "critpath recording perturbed %s: %llu vs "
                         "%llu cycles\n",
                         programs[i].name.c_str(),
                         static_cast<unsigned long long>(streamCycles[i]),
                         static_cast<unsigned long long>(res.stats.cycles));
            std::abort();
        }
        std::printf("%-14s %14llu %10zu %10zu\n", programs[i].name.c_str(),
                    static_cast<unsigned long long>(res.stats.cycles),
                    cp.eventCount(), cp.depCount());
        report.row("critpath." + programs[i].name)
            .num("cycles", static_cast<double>(res.stats.cycles))
            .num("events", static_cast<double>(cp.eventCount()))
            .num("deps", static_cast<double>(cp.depCount()));
    }
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonOut = wsbench::parseJsonOutFlag(argc, argv);
    wsbench::JsonReport report;
    printCritPath(printTable(report), report);
    if (!wsbench::emitJson(jsonOut, "table2_streaming", report))
        return 1;
    return 0;
}
