/**
 * @file
 * Ablation: memory-latency tolerance of the access/execute model.
 *
 * The paper's motivation: "in concert with the compiler, it allows the
 * processor to mask memory latency by issuing loads in advance of the
 * data consumption. The result is a machine that is less sensitive to
 * memory latency and cache misses." Streams push this further: the
 * SCUs prefetch arbitrarily far ahead.
 *
 * This harness sweeps the memory latency and reports cycles for the
 * dot product compiled scalar vs. streamed.
 */

#include "bench/common.h"
#include "programs/programs.h"

using namespace wmstream;

namespace {

void
printTable(wsbench::JsonReport &report)
{
    std::string src = programs::dotProductSource(2000);
    driver::CompileOptions scalarOpts;
    scalarOpts.streaming = false;
    driver::CompileOptions streamOpts;

    auto scalarProg = driver::compileSource(src, scalarOpts);
    auto streamProg = driver::compileSource(src, streamOpts);
    if (!scalarProg.ok || !streamProg.ok)
        std::abort();

    std::printf("Ablation: cycles vs. memory latency (dot product, "
                "n=2000)\n\n");
    std::printf("%10s %16s %16s %14s\n", "latency", "scalar cycles",
                "streamed cycles", "stream speedup");
    for (int lat : {1, 2, 4, 8, 16, 32}) {
        wmsim::SimConfig cfg;
        cfg.memLatency = lat;
        cfg.maxCycles = 1'000'000'000ull;
        auto s0 = wmsim::simulate(*scalarProg.program, cfg);
        auto s1 = wmsim::simulate(*streamProg.program, cfg);
        if (!s0.ok || !s1.ok)
            std::abort();
        std::printf("%10d %16llu %16llu %13.2fx\n", lat,
                    static_cast<unsigned long long>(s0.stats.cycles),
                    static_cast<unsigned long long>(s1.stats.cycles),
                    static_cast<double>(s0.stats.cycles) /
                        static_cast<double>(s1.stats.cycles));
        report.row("latency=" + std::to_string(lat))
            .num("scalar_cycles", static_cast<double>(s0.stats.cycles))
            .num("streamed_cycles",
                 static_cast<double>(s1.stats.cycles));
    }
    std::printf("\nScalar code already tolerates moderate latency (loads "
                "issue ahead through the\nFIFOs); streamed code is nearly "
                "flat because the SCUs run arbitrarily far\nahead of the "
                "consuming unit.\n\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonOut = wsbench::parseJsonOutFlag(argc, argv);
    wsbench::JsonReport report;
    printTable(report);
    if (!wsbench::emitJson(jsonOut, "ablation_latency", report))
        return 1;
    return 0;
}
