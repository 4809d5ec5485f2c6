/**
 * @file
 * Ablation: recurrence degree vs. register cost and benefit.
 *
 * The paper (Step 4a): "The maximum difference determines the number
 * of registers needed to handle the recurrence. ... In general, you
 * need one more register than the degree of the recurrence", and the
 * pass gives up "because there may not be enough registers".
 *
 * This harness sweeps the recurrence distance d in
 * x[i] = z[i]*(y[i] - x[i-d]) and reports whether the pass fired, the
 * chain length it used, and the cycle effect on WM.
 */

#include "bench/common.h"
#include "programs/programs.h"

using namespace wmstream;

namespace {

void
printTable(wsbench::JsonReport &report)
{
    std::printf("Ablation: recurrence degree (x[i] = z[i]*(y[i] - "
                "x[i-d]), n=2000)\n\n");
    std::printf("%8s %10s %12s %14s %14s %10s\n", "degree", "fired?",
                "registers", "base cycles", "opt cycles", "gain %");
    for (int d : {1, 2, 3, 4, 5, 6}) {
        std::string src = programs::recurrenceDegreeSource(2000, d);
        uint64_t cyc[2];
        int fired = 0, degree = 0;
        for (int rec = 0; rec < 2; ++rec) {
            driver::CompileOptions opts;
            opts.recurrence = rec != 0;
            opts.streaming = false;
            auto cr = driver::compileSource(src, opts);
            if (!cr.ok)
                std::abort();
            if (rec) {
                for (const auto &r : cr.recurrenceReports) {
                    fired += r.recurrencesOptimized;
                    degree = std::max(degree, r.maxDegree);
                }
            }
            auto res = wmsim::simulate(*cr.program);
            if (!res.ok)
                std::abort();
            cyc[rec] = res.stats.cycles;
        }
        std::printf("%8d %10s %12d %14llu %14llu %10.1f\n", d,
                    fired ? "yes" : "no", fired ? degree + 1 : 0,
                    static_cast<unsigned long long>(cyc[0]),
                    static_cast<unsigned long long>(cyc[1]),
                    wsbench::pctReduction(static_cast<double>(cyc[0]),
                                          static_cast<double>(cyc[1])));
        report.row("degree=" + std::to_string(d))
            .num("fired", fired)
            .num("base_cycles", static_cast<double>(cyc[0]))
            .num("opt_cycles", static_cast<double>(cyc[1]));
    }
    std::printf("\nDegrees beyond the register budget (4) are left to "
                "memory, exactly the\npaper's \"not enough registers\" "
                "bail-out.\n\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonOut = wsbench::parseJsonOutFlag(argc, argv);
    wsbench::JsonReport report;
    printTable(report);
    if (!wsbench::emitJson(jsonOut, "ablation_degree", report))
        return 1;
    return 0;
}
