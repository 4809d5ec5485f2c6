/**
 * @file
 * Figure 7: WM code for the 5th Livermore loop with stream
 * instructions.
 *
 * The paper's final form: SinD/SinD/SoutD started in the preheader,
 * a loop body of two FEU instructions, and a jump-on-stream-not-
 * exhausted — no address computations execute inside the loop.
 */

#include "bench/common.h"
#include "programs/programs.h"
#include "wm/printer.h"

using namespace wmstream;

namespace {

void
printFigure(wsbench::JsonReport &report)
{
    driver::CompileOptions opts;
    auto cr = driver::compileSource(programs::livermore5Source(100), opts);
    if (!cr.ok)
        std::abort();
    std::printf("Figure 7. WM code with stream instructions\n\n%s\n",
                wm::printFunction(*cr.program->findFunction("main"))
                    .c_str());
    int streams = 0, tests = 0;
    for (const auto &r : cr.streamingReports) {
        streams += r.streamsIn + r.streamsOut;
        tests += r.loopTestsReplaced;
    }
    std::printf("Streams created: %d, loop tests replaced with "
                "jump-on-stream: %d\n",
                streams, tests);
    auto res = wmsim::simulate(*cr.program);
    if (!res.ok)
        std::abort();
    report.row("livermore5")
        .num("streams", streams)
        .num("loop_tests_replaced", tests)
        .num("cycles", static_cast<double>(res.stats.cycles));
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonOut = wsbench::parseJsonOutFlag(argc, argv);
    wsbench::JsonReport report;
    printFigure(report);
    if (!wsbench::emitJson(jsonOut, "fig7_stream_code", report))
        return 1;
    return 0;
}
