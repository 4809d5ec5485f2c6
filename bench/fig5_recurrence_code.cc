/**
 * @file
 * Figure 5: WM code for the 5th Livermore loop with recurrences
 * optimized.
 *
 * The x[i-1] load disappears: the value is retained in a register
 * (paper: f22), the loop preheader primes it with x[1], and only three
 * memory references per iteration remain.
 */

#include "bench/common.h"
#include "programs/programs.h"
#include "wm/printer.h"

using namespace wmstream;

namespace {

void
printFigure()
{
    driver::CompileOptions opts;
    opts.recurrence = true;
    opts.streaming = false;
    auto cr = driver::compileSource(programs::livermore5Source(100), opts);
    if (!cr.ok)
        std::abort();
    std::printf("Figure 5. WM code for the 5th Livermore loop with "
                "recurrences optimized\n\n%s\n",
                wm::printFunction(*cr.program->findFunction("main"))
                    .c_str());
    std::printf("Recurrences optimized: %d (loads deleted: %d)\n",
                cr.recurrenceReports.empty()
                    ? 0
                    : cr.recurrenceReports[0].recurrencesOptimized,
                cr.recurrenceReports.empty()
                    ? 0
                    : cr.recurrenceReports[0].loadsDeleted);
}

} // namespace

int
main(int argc, char **argv)
{
    wsbench::parseJsonOutFlag(argc, argv, /*hasJson=*/false);
    printFigure();
    return 0;
}
