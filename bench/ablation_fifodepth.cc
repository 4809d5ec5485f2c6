/**
 * @file
 * Ablation: data-FIFO depth vs. streamed performance.
 *
 * The FIFO depth bounds how far the SCUs can prefetch ahead of the
 * consuming unit. With short FIFOs and long memory latency the stream
 * cannot cover the latency; the paper's "burst mode" remark assumes
 * deep enough buffering. This harness sweeps the depth at two memory
 * latencies for the streamed dot product.
 */

#include "bench/common.h"
#include "programs/programs.h"

using namespace wmstream;

namespace {

void
printTable(wsbench::JsonReport &report)
{
    driver::CompileOptions opts;
    auto cr = driver::compileSource(programs::dotProductSource(2000),
                                    opts);
    if (!cr.ok)
        std::abort();

    std::printf("Ablation: streamed dot product (n=2000) cycles vs. "
                "FIFO depth\n\n");
    std::printf("%12s %18s %18s\n", "FIFO depth", "latency 4",
                "latency 16");
    for (int depth : {2, 4, 8, 16, 32}) {
        uint64_t cyc[2];
        int lats[2] = {4, 16};
        for (int i = 0; i < 2; ++i) {
            wmsim::SimConfig cfg;
            cfg.dataFifoDepth = depth;
            cfg.memLatency = lats[i];
            cfg.maxCycles = 1'000'000'000ull;
            auto res = wmsim::simulate(*cr.program, cfg);
            if (!res.ok)
                std::abort();
            cyc[i] = res.stats.cycles;
        }
        std::printf("%12d %18llu %18llu\n", depth,
                    static_cast<unsigned long long>(cyc[0]),
                    static_cast<unsigned long long>(cyc[1]));
        report.row("depth=" + std::to_string(depth))
            .num("cycles_latency4", static_cast<double>(cyc[0]))
            .num("cycles_latency16", static_cast<double>(cyc[1]));
    }
    std::printf("\nOnce the depth covers the memory latency the "
                "streamed loop runs at its\ncompute-bound rate; "
                "shallower FIFOs leave the FEU waiting for "
                "deliveries.\n\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonOut = wsbench::parseJsonOutFlag(argc, argv);
    wsbench::JsonReport report;
    printTable(report);
    if (!wsbench::emitJson(jsonOut, "ablation_fifodepth", report))
        return 1;
    return 0;
}
