/**
 * @file
 * Dataflow-engine shape: liveness and whole-program static FIFO
 * analysis on large generated TUs.
 *
 * Not a paper table — a harness health metric for the pooled-bitset
 * dataflow framework (src/dataflow) and the static FIFO depth analysis
 * built on it (src/verify/fifodepth.cc, which reads its depths off the
 * fifolint queue walk). The printed table pins the deterministic shape
 * of the analysis (block/register/bitset-word counts, inferred depth,
 * verdict, queues with traffic): benchdiff gates those columns exactly
 * (its COUNTERS set), so any change to the solver or the queue walk's
 * results fails the bench-smoke test. The analyses' host time is
 * perfbench's `verify.*` and `bigtu` metrics.
 */

#include "bench/common.h"
#include "cfg/liveness.h"
#include "verify/verify.h"

using namespace wmstream;

namespace {

/**
 * A TU with @p loops sequential kernels over shared local arrays. The
 * arrays share one frame-pointer partition (`reg:r30`), so no loop
 * streams (`memory-recurrence-remains`), and the FIFO analysis walks
 * @p loops + 1 unstreamed loops.
 */
std::string
bigTuSource(int loops, int n)
{
    std::string src = "int main() {\n"
                      "  int n = " + std::to_string(n) + ";\n"
                      "  double a[" + std::to_string(n) + "];\n"
                      "  double b[" + std::to_string(n) + "];\n"
                      "  double c[" + std::to_string(n) + "];\n"
                      "  int i;\n"
                      "  for (i = 0; i < n; i = i + 1) {\n"
                      "    a[i] = 1.0; b[i] = 2.0; c[i] = 0.0;\n"
                      "  }\n";
    for (int l = 0; l < loops; ++l)
        src += "  for (i = 0; i < n; i = i + 1) {\n"
               "    c[i] = c[i] + a[i] * b[i];\n"
               "  }\n";
    src += "  return c[" + std::to_string(n - 1) + "];\n"
           "}\n";
    return src;
}

driver::CompileResult
compileBigTu(int loops, int n)
{
    driver::CompileOptions opts;
    auto cr = driver::compileSource(bigTuSource(loops, n), opts);
    if (!cr.ok) {
        std::fprintf(stderr, "compile failed:\n%s\n",
                     cr.diagnostics.c_str());
        std::abort();
    }
    return cr;
}

size_t
totalBlocks(const rtl::Program &prog)
{
    size_t n = 0;
    for (const auto &fn : prog.functions())
        n += fn->blocks().size();
    return n;
}

void
printTable(wsbench::JsonReport &report)
{
    std::printf("Dataflow engine: liveness + static FIFO analysis on "
                "generated TUs.\n\n");
    std::printf("%-16s %7s %7s %6s %9s %9s\n", "TU", "blocks", "regs",
                "words", "mindepth", "verdict");
    for (int loops : {4, 16, 64}) {
        auto cr = compileBigTu(loops, 256);
        rtl::Function &main = *cr.program->functions().front();
        cfg::Liveness live(main, cr.traits);
        size_t words = live.bitsetWords();
        verify::FifoRequirements req = verify::analyzeFifoRequirements(
            *cr.program, cr.traits, /*configuredDepth=*/8);

        std::string label = "bigtu.l" + std::to_string(loops);
        std::printf("%-16s %7zu %7zu %6zu %9d %9s\n", label.c_str(),
                    totalBlocks(*cr.program), live.numKeys(), words,
                    req.minDepth, req.verdict.c_str());
        report.row(label)
            .num("blocks", static_cast<double>(totalBlocks(*cr.program)))
            .num("regs", static_cast<double>(live.numKeys()))
            .num("bitset_words", static_cast<double>(words))
            .num("fifo_min_depth", static_cast<double>(req.minDepth))
            .num("deadlock_free", req.deadlockFree ? 1.0 : 0.0)
            .num("queues_analyzed",
                 static_cast<double>(req.queues.size()));
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
    if (!wsbench::emitJson(jsonOut, "dataflowbench", report))
        return 1;
    return 0;
}
