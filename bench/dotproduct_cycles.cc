/**
 * @file
 * Section 2 claim: "With a relatively simple hardware implementation,
 * the code will produce the dot product in N clock cycles."
 *
 * The streamed dot-product loop is one FEU multiply-add plus an
 * IFU-executed jump, so its steady-state rate is one element per
 * cycle. This harness measures cycles-per-element of the dot-product
 * kernel for growing N (total cycles include initialization, so the
 * marginal cost between two sizes is the kernel rate).
 */

#include "bench/common.h"
#include "programs/programs.h"
#include "support/str.h"

using namespace wmstream;

namespace {

/** Dot product with the kernel repeated @p reps times. */
std::string
dotSource(int n, int reps)
{
    return strFormat(R"(
int n = %d;
int reps = %d;
double a[%d];
double b[%d];
int main(void)
{
    int i, rep;
    double s;
    for (i = 0; i < n; i++) {
        a[i] = 0.25 + (i & 31) * 0.03125;
        b[i] = 1.5 - (i & 7) * 0.125;
    }
    s = 0.0;
    for (rep = 0; rep < reps; rep++)
        for (i = 0; i < n; i++)
            s = s + a[i] * b[i];
    return s;
}
)",
                     n, reps, n, n);
}

wmsim::SimResult
resultFor(int n, int reps, bool streaming)
{
    driver::CompileOptions opts;
    opts.streaming = streaming;
    return wsbench::runWm(dotSource(n, reps), opts);
}

void
printTable(wsbench::JsonReport &report)
{
    std::printf("Dot product cycle rate (paper Section 2: \"the dot "
                "product in N clock cycles\")\n\n");
    // Differencing over kernel repetitions isolates the kernel from
    // the initialization loop.
    constexpr int kN = 2000;
    std::printf("Kernel cycles/element at n=%d (marginal over kernel "
                "repetitions):\n\n", kN);
    std::printf("%10s %22s %22s\n", "", "scalar", "streamed");
    auto r0a = resultFor(kN, 1, false);
    auto r0b = resultFor(kN, 5, false);
    auto r1a = resultFor(kN, 1, true);
    auto r1b = resultFor(kN, 5, true);
    uint64_t s0a = r0a.stats.cycles, s0b = r0b.stats.cycles;
    uint64_t s1a = r1a.stats.cycles, s1b = r1b.stats.cycles;
    double scalarRate = static_cast<double>(s0b - s0a) / (4.0 * kN);
    double streamRate = static_cast<double>(s1b - s1a) / (4.0 * kN);
    std::printf("%10s %22.3f %22.3f\n", "cyc/elem", scalarRate,
                streamRate);
    report.row("scalar")
        .num("n", kN)
        .num("cycles_per_element", scalarRate)
        .sim(r0b.stats);
    report.row("streamed")
        .num("n", kN)
        .num("cycles_per_element", streamRate)
        .sim(r1b.stats);
    std::printf("\nThe streamed kernel sustains ~1 cycle per element: "
                "one FEU multiply-add\n(f4 := (f0*f1)+f4) plus a "
                "zero-cost IFU jump — the paper's \"dot product in\n"
                "N clock cycles\".\n\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonOut = wsbench::parseJsonOutFlag(argc, argv);
    wsbench::JsonReport report;
    printTable(report);
    if (!wsbench::emitJson(jsonOut, "dotproduct_cycles", report))
        return 1;
    return 0;
}
