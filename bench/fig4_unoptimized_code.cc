/**
 * @file
 * Figure 4: unoptimized WM code for the 5th Livermore loop.
 *
 * The paper's Figure 4 shows the loop after expansion, loop detection,
 * and code motion, but before recurrence detection: four memory
 * references per iteration (z[i], y[i], x[i-1] reads and the x[i]
 * write), each an address generation feeding the data FIFOs.
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
    opts.recurrence = false;
    opts.streaming = false;
    auto cr = driver::compileSource(programs::livermore5Source(100), opts);
    if (!cr.ok)
        std::abort();
    std::printf("Figure 4. Unoptimized WM code for the 5th Livermore "
                "loop\n(recurrence and streaming optimizations "
                "disabled)\n\n%s\n",
                wm::printFunction(*cr.program->findFunction("main"))
                    .c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    wsbench::parseJsonOutFlag(argc, argv, /*hasJson=*/false);
    printFigure();
    return 0;
}
