/**
 * @file
 * Ablation: the vector execution unit.
 *
 * The paper describes the VEU ("conceptually the iterations of the
 * loop are performed simultaneously by the vector execution unit") and
 * notes "when vector code is possible, the compiler generates code
 * that uses the vector unit" — but publishes no VEU measurements.
 * This harness quantifies the extension: an element-wise kernel
 * compiled scalar, streamed, and streamed+vectorized, across VEU lane
 * counts, with the memory system given the bandwidth (ports/burst)
 * vector rates need.
 */

#include "bench/common.h"
#include "support/str.h"

using namespace wmstream;

namespace {

std::string
kernel(int n)
{
    return strFormat(R"(
int n = %d;
double a[%d];
double b[%d];
double c[%d];
int main(void) {
    int i, rep;
    double s;
    for (i = 0; i < n; i++) {
        a[i] = 0.5 + (i & 7) * 0.25;
        b[i] = 2.0 - (i & 3) * 0.5;
    }
    for (rep = 0; rep < 8; rep++)
        for (i = 0; i < n; i++)
            c[i] = a[i] + b[i];
    s = 0.0;
    for (i = 0; i < n; i++)
        s = s + c[i];
    return s;
}
)",
                     n, n, n, n);
}

void
printTable(wsbench::JsonReport &report)
{
    std::string src = kernel(2000);

    driver::CompileOptions scalarOpts;
    scalarOpts.streaming = false;
    driver::CompileOptions streamOpts;
    driver::CompileOptions vecOpts;
    vecOpts.vectorize = true;

    auto scalar = driver::compileSource(src, scalarOpts);
    auto streamed = driver::compileSource(src, streamOpts);
    auto vectored = driver::compileSource(src, vecOpts);
    if (!scalar.ok || !streamed.ok || !vectored.ok)
        std::abort();
    int vl = 0;
    for (const auto &r : vectored.vectorizeReports)
        vl += r.loopsVectorized;

    std::printf("Ablation: VEU vectorization of c[i] = a[i] + b[i] "
                "(n=2000, kernel x8)\n");
    std::printf("(memory: 12 ports, SCU burst 4, 64-entry FIFOs; %d "
                "loop(s) vectorized)\n\n", vl);
    std::printf("%10s %14s %14s %16s\n", "VEU lanes", "scalar",
                "streamed", "stream+vector");
    for (int lanes : {1, 2, 4, 8}) {
        wmsim::SimConfig cfg;
        cfg.veuLanes = lanes;
        cfg.memPorts = 12;
        cfg.scuBurst = 4;
        cfg.dataFifoDepth = 64;
        cfg.maxCycles = 1'000'000'000ull;
        auto r0 = wmsim::simulate(*scalar.program, cfg);
        auto r1 = wmsim::simulate(*streamed.program, cfg);
        auto r2 = wmsim::simulate(*vectored.program, cfg);
        if (!r0.ok || !r1.ok || !r2.ok)
            std::abort();
        if (r0.returnValue != r2.returnValue)
            std::abort();
        std::printf("%10d %14llu %14llu %16llu\n", lanes,
                    static_cast<unsigned long long>(r0.stats.cycles),
                    static_cast<unsigned long long>(r1.stats.cycles),
                    static_cast<unsigned long long>(r2.stats.cycles));
        report.row("lanes=" + std::to_string(lanes))
            .num("scalar_cycles", static_cast<double>(r0.stats.cycles))
            .num("streamed_cycles",
                 static_cast<double>(r1.stats.cycles))
            .num("vector_cycles",
                 static_cast<double>(r2.stats.cycles));
    }
    std::printf("\nThe streamed-scalar loop is pinned at one element "
                "per cycle by the FEU; the\nVEU scales with its lanes "
                "until the memory system saturates.\n\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonOut = wsbench::parseJsonOutFlag(argc, argv);
    wsbench::JsonReport report;
    printTable(report);
    if (!wsbench::emitJson(jsonOut, "ablation_vector", report))
        return 1;
    return 0;
}
