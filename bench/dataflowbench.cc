/**
 * @file
 * Dataflow-engine throughput: liveness solves and whole-program static
 * FIFO analysis on large generated TUs.
 *
 * Not a paper table — a harness health metric for the pooled-bitset
 * dataflow framework (src/dataflow) and the static FIFO depth analysis
 * built on it (src/verify/fifodepth.cc, which reads its depths off the
 * fifolint queue walk). The printed table pins the deterministic shape
 * of the analysis (block/register/bitset-word counts, inferred depth,
 * verdict, queues with traffic): benchdiff gates those columns exactly
 * (EXACT_METRICS), so any change to the solver or the queue walk's
 * results fails the bench-smoke test. "wall_ms" columns are
 * host-dependent and excluded automatically (benchdiff's
 * HOST_METRIC_MARKERS).
 *
 * The google-benchmark loops time the two hot paths the framework
 * exists for: repeated Liveness construction (the DCE pipeline's
 * per-pass rebuild) and analyzeFifoRequirements (the wmfuzz agreement
 * oracle runs it once per generated program).
 */

#include <benchmark/benchmark.h>

#include "bench/common.h"
#include "cfg/liveness.h"
#include "obs/pass_profiler.h"
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
    std::printf("%-16s %7s %7s %6s %9s %9s %11s %11s\n", "TU", "blocks",
                "regs", "words", "mindepth", "verdict", "live ms",
                "fifo ms");
    for (int loops : {4, 16, 64}) {
        auto cr = compileBigTu(loops, 256);
        rtl::Function &main = *cr.program->functions().front();

        obs::PhaseTimer liveTimer;
        cfg::Liveness live(main, cr.traits);
        // Force the solve's outputs to materialize.
        size_t words = live.bitsetWords();
        double liveMs = liveTimer.elapsedMs();

        obs::PhaseTimer fifoTimer;
        verify::FifoRequirements req = verify::analyzeFifoRequirements(
            *cr.program, cr.traits, /*configuredDepth=*/8);
        double fifoMs = fifoTimer.elapsedMs();

        std::string label = "bigtu.l" + std::to_string(loops);
        std::printf("%-16s %7zu %7zu %6zu %9d %9s %11.2f %11.2f\n",
                    label.c_str(), totalBlocks(*cr.program),
                    live.numKeys(), words, req.minDepth,
                    req.verdict.c_str(), liveMs, fifoMs);
        report.row(label)
            .num("blocks", static_cast<double>(totalBlocks(*cr.program)))
            .num("regs", static_cast<double>(live.numKeys()))
            .num("bitset_words", static_cast<double>(words))
            .num("fifo_min_depth", static_cast<double>(req.minDepth))
            .num("deadlock_free", req.deadlockFree ? 1.0 : 0.0)
            .num("queues_analyzed",
                 static_cast<double>(req.queues.size()))
            .num("liveness_wall_ms", liveMs)
            .num("fifo_wall_ms", fifoMs);
    }
    std::printf("\n");
}

/** Repeated liveness construction — the per-pass rebuild the pooled
 *  solver is meant to make cheap. */
void
BM_LivenessSolve(benchmark::State &state)
{
    auto cr = compileBigTu(static_cast<int>(state.range(0)), 256);
    rtl::Function &main = *cr.program->functions().front();
    for (auto _ : state) {
        cfg::Liveness live(main, cr.traits);
        benchmark::DoNotOptimize(live.numKeys());
    }
}
BENCHMARK(BM_LivenessSolve)->Arg(4)->Arg(64);

/** The full static FIFO analysis, as run once per wmfuzz program. */
void
BM_FifoRequirements(benchmark::State &state)
{
    auto cr = compileBigTu(static_cast<int>(state.range(0)), 256);
    for (auto _ : state) {
        auto req = verify::analyzeFifoRequirements(*cr.program,
                                                   cr.traits, 8);
        benchmark::DoNotOptimize(req.minDepth);
    }
}
BENCHMARK(BM_FifoRequirements)->Arg(4)->Arg(64);

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonOut = wsbench::extractJsonOutFlag(&argc, argv);
    wsbench::JsonReport report;
    printTable(report);
    if (!wsbench::emitJson(jsonOut, "dataflowbench", report))
        return 1;
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
