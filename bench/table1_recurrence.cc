/**
 * @file
 * Table I: effect of recurrence optimization on execution time.
 *
 * The paper compiled the 5th Livermore loop (array size 100,000) with
 * and without recurrence detection and ran it on five machines:
 *
 *     Sun 3/280 19%, HP 9000/345 12%, VAX 8600 6%, Motorola 88100 7%,
 *     WM 18%.
 *
 * Here the four stock machines are per-instruction timing models over
 * the compiled scalar RTL and WM is the cycle simulator (see DESIGN.md
 * substitution 3). The kernel is repeated so it dominates, as in the
 * paper's timing runs.
 */

#include "bench/common.h"
#include "programs/programs.h"
#include "timing/scalar_sim.h"

using namespace wmstream;

namespace {

constexpr int kArraySize = 4000;
constexpr int kReps = 16;

struct Row
{
    std::string machine;
    double improvement;
    int paper;
};

std::vector<Row>
computeTable()
{
    std::string src = programs::livermore5Source(kArraySize, kReps);

    driver::CompileResult scalar[2];
    for (int rec = 0; rec < 2; ++rec) {
        driver::CompileOptions opts;
        opts.target = rtl::MachineKind::Scalar;
        opts.recurrence = rec != 0;
        scalar[rec] = driver::compileSource(src, opts);
        if (!scalar[rec].ok)
            std::abort();
    }

    std::vector<Row> rows;
    const std::pair<timing::CostModel, int> machines[] = {
        {timing::sun3_280Model(), 19},
        {timing::hp9000_345Model(), 12},
        {timing::vax8600Model(), 6},
        {timing::m88100Model(), 7},
    };
    for (const auto &[model, paper] : machines) {
        double cyc[2];
        for (int rec = 0; rec < 2; ++rec) {
            auto res = timing::runScalar(*scalar[rec].program, model,
                                         4'000'000'000ull);
            if (!res.ok)
                std::abort();
            cyc[rec] = res.cycles;
        }
        rows.push_back({model.name, wsbench::pctReduction(cyc[0], cyc[1]),
                        paper});
    }

    double wm[2];
    for (int rec = 0; rec < 2; ++rec) {
        driver::CompileOptions opts;
        opts.recurrence = rec != 0;
        opts.streaming = false; // Table I isolates the recurrence effect
        wm[rec] = static_cast<double>(
            wsbench::runWm(src, opts).stats.cycles);
    }
    rows.push_back({"WM (cycle simulator)",
                    wsbench::pctReduction(wm[0], wm[1]), 18});
    return rows;
}

void
printTable(wsbench::JsonReport &report)
{
    std::printf("Table I. Effect of Recurrence Optimization on Execution "
                "Time\n");
    std::printf("(5th Livermore loop, n=%d, kernel repeated %d times)\n\n",
                kArraySize, kReps);
    std::printf("%-28s %12s %10s\n", "Machine", "measured %", "paper %");
    auto rows = computeTable();
    for (const Row &r : rows) {
        std::printf("%-28s %12.1f %10d\n", r.machine.c_str(),
                    r.improvement, r.paper);
        report.row(r.machine)
            .num("improvement_pct", r.improvement)
            .num("paper_pct", r.paper);
    }
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonOut = wsbench::parseJsonOutFlag(argc, argv);
    wsbench::JsonReport report;
    printTable(report);
    if (!wsbench::emitJson(jsonOut, "table1_recurrence", report))
        return 1;
    return 0;
}
