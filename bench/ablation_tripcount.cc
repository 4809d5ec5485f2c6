/**
 * @file
 * Ablation: the paper's Step 1 threshold ("If the number of iterations
 * is determined to be three or fewer, do not use streams. ... setting
 * up the stream instructions would result in code that executes slower
 * than the code without streaming").
 *
 * We sweep a copy kernel's (compile-time constant) trip count with the
 * threshold disabled, showing where streaming starts to win and that
 * the paper's cut-off sits near the crossover.
 */

#include "bench/common.h"
#include "support/str.h"

using namespace wmstream;

namespace {

std::string
copyKernel(int trip)
{
    // An outer repeat loop amplifies the inner loop's cost; only the
    // inner loop (constant trip count) is subject to streaming.
    return strFormat(R"(
double a[64];
double b[64];
int main(void)
{
    int i, rep, t;
    double s;
    for (i = 0; i < 64; i++)
        a[i] = 1.0 + i;
    for (rep = 0; rep < 500; rep++) {
        for (i = 0; i < %d; i++)
            b[i] = a[i];
    }
    s = 0.0;
    for (t = 0; t < %d; t++)
        s = s + b[t];
    return s;
}
)",
                     trip, trip);
}

void
printTable(wsbench::JsonReport &report)
{
    std::printf("Ablation: stream profitability vs. loop trip count\n"
                "(paper Step 1: trip counts of three or fewer are not "
                "streamed)\n\n");
    std::printf("%6s %16s %16s %12s %20s\n", "trip", "scalar cycles",
                "streamed cycles", "streamed?", "stream wins?");
    for (int trip : {1, 2, 3, 4, 6, 8, 16, 32, 64}) {
        std::string src = copyKernel(trip);
        driver::CompileOptions noStream;
        noStream.streaming = false;
        uint64_t base = wsbench::runWm(src, noStream).stats.cycles;

        // Threshold disabled: stream even tiny loops.
        driver::CompileOptions force;
        force.minStreamTripCount = 0;
        auto cr = driver::compileSource(src, force);
        if (!cr.ok)
            std::abort();
        int streams = 0;
        for (const auto &r : cr.streamingReports)
            streams += r.streamsIn + r.streamsOut;
        auto res = wmsim::simulate(*cr.program);
        if (!res.ok)
            std::abort();
        uint64_t forced = res.stats.cycles;

        std::printf("%6d %16llu %16llu %12s %20s\n", trip,
                    static_cast<unsigned long long>(base),
                    static_cast<unsigned long long>(forced),
                    streams ? "yes" : "no",
                    forced < base ? "yes" : "NO (slower)");
        report.row("trip=" + std::to_string(trip))
            .num("scalar_cycles", static_cast<double>(base))
            .num("streamed_cycles", static_cast<double>(forced));
    }
    std::printf("\nWith the paper's default threshold (4), loops of "
                "three or fewer iterations\nkeep their scalar code.\n\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonOut = wsbench::parseJsonOutFlag(argc, argv);
    wsbench::JsonReport report;
    printTable(report);
    if (!wsbench::emitJson(jsonOut, "ablation_tripcount", report))
        return 1;
    return 0;
}
