/**
 * @file
 * Figure 6: Motorola 68020 code for the 5th Livermore loop with
 * recurrences optimized.
 *
 * Demonstrates the retargetability claim: the recurrence pass is
 * machine-independent, and on the 68020 strength reduction plus
 * instruction selection yields the auto-increment loop of the paper's
 * figure (fmoved a0@+, fsubx, fmulx, fmoved fp0,a2@+, addql, cmpl,
 * jlt).
 */

#include "bench/common.h"
#include "m68k/printer.h"
#include "programs/programs.h"

using namespace wmstream;

namespace {

void
printFigure()
{
    driver::CompileOptions opts;
    opts.target = rtl::MachineKind::Scalar;
    opts.recurrence = true;
    auto cr = driver::compileSource(programs::livermore5Source(100), opts);
    if (!cr.ok)
        std::abort();
    std::printf("Figure 6. Motorola 68020 code for the 5th Livermore "
                "loop with recurrences optimized\n\n%s\n",
                m68k::printFunction(*cr.program->findFunction("main"))
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
