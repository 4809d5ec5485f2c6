/**
 * @file
 * wmc — the command-line driver for the wmstream compiler.
 *
 * Compiles a mini-C source file for the WM access/execute architecture
 * (or the generic scalar target with 68020 output), optionally runs it
 * on the cycle simulator, and can dump the paper-style
 * memory-reference partition analysis. The observability flags emit
 * machine-readable artifacts: per-unit stall-cause counters and FIFO
 * occupancy histograms as JSON, a Chrome trace_event pipeline trace
 * (load in Perfetto / chrome://tracing), and per-pass compiler
 * profiles.
 *
 * Usage:
 *   wmc [options] file.c
 *
 * Options:
 *   --target=wm|68020     target machine            (default: wm)
 *   --no-opt              disable the classic optimizer phases
 *   --no-recurrence       disable recurrence detection/optimization
 *   --no-streaming        disable streaming
 *   --vectorize           enable VEU vectorization
 *   --min-trip=N          streaming trip-count threshold (default 4)
 *   --print-asm           print the generated assembly
 *   --trace-partitions    print the per-loop partition vectors
 *   --remarks[=text|json] print optimization remarks: every streaming /
 *                         recurrence decision with source location,
 *                         verdict, and reason code (default: text)
 *   --run                 execute on the simulator / timing model
 *   --stats               with --run: print cycle statistics
 *   --stats-json=FILE     with --run: write stats (stall causes, FIFO
 *                         occupancy, per-loop cycles, compile reports)
 *                         as JSON; "-" for stdout
 *   --manifest=FILE       write the unified run manifest: tool
 *                         identity, host throughput (wall-clock,
 *                         simulated cycles/second), remarks, stats,
 *                         and the flight-recorder time series as one
 *                         JSON document; "-" for stdout
 *   --metrics-out=FILE    write run counters and host throughput in
 *                         Prometheus text exposition format
 *   --sample-window=N     flight-recorder window span in simulated
 *                         cycles (default 1024); sampling is on
 *                         whenever --manifest or this flag is given
 *   --trace-out=FILE      with --run: write a Chrome trace-event
 *                         pipeline trace (WM target only); with
 *                         sampling on, adds per-window counter tracks
 *   --profile-passes      print per-pass wall time and RTL
 *                         instruction-count deltas
 *   --mem-latency=N       simulator memory latency    (default 4)
 *   --fifo-depth=N        simulator data FIFO depth   (default 8)
 *   --lanes=N             simulator VEU lanes         (default 4)
 *   --max-cycles=N        simulator cycle budget
 *   --watchdog-window=N   deadlock watchdog no-progress window in
 *                         cycles (0 disables; default 4096)
 *   --chaos-seed=N        nonzero: perturb simulator timing (latency
 *                         jitter, port withholding, fetch-width
 *                         wobble) from seed N; architectural results
 *                         must not change
 *   --fault-report[=text|json]
 *                         with --run: on deadlock/livelock print the
 *                         watchdog's forensic report (blocked units,
 *                         stall causes, wait-for graph, FIFO/stream
 *                         state); text goes to stderr, json to stdout
 *   --critpath[=text|json]
 *                         with --run (WM target): record the causal
 *                         scheduling DAG, attribute every simulated
 *                         cycle to one (unit, stall-cause, loop)
 *                         critical edge (exact sum), predict what-if
 *                         speedups by DAG replay, and print the
 *                         bottleneck table (default: text). The
 *                         manifest gains a "critical_path" section
 *                         and the metrics wm_critpath_* families;
 *                         per-loop "critical-edge" remarks name each
 *                         loop's dominant critical edge; with json
 *                         the document owns stdout (human lines move
 *                         to stderr)
 *   --critpath-validate   with --critpath: re-simulate each
 *                         validatable what-if scenario on the changed
 *                         machine and report prediction error
 *   --verify[=each|final] run the IR verifier (structural validity,
 *                         FIFO discipline, recurrence legality):
 *                         `each` re-checks after expansion and after
 *                         every pass, `final` once at the end
 *                         (default: each). Any violation is an
 *                         internal compiler error: exit 70
 *   --infer-fifo-depth    whole-program static FIFO analysis over the
 *                         lowered WM code: prove deadlock-freedom and
 *                         infer the minimal data-FIFO depth per queue.
 *                         Prints the per-queue requirements table,
 *                         adds a "fifo_requirements" section to
 *                         --stats-json/--manifest, and exits 1 when
 *                         --fifo-depth is below the inferred minimum
 *                         (a configuration error). Compiler-bug
 *                         findings (static-starved-pop,
 *                         static-unproven) exit 70 like any verifier
 *                         violation
 *   --inject-deadlock-bug (self-test) miscompile: start every
 *                         non-steering input stream one element short
 *   --inject-verifier-bug (self-test) miscompile: drop one input
 *                         stream's FIFO dequeue after streaming, for
 *                         the static linter to catch at compile time
 *   --inject-panic-tu     (self-test) panic (InternalError) after
 *                         expansion — solo: exit 70; batch: the TU is
 *                         quarantined while its neighbours complete
 *   --version             print the version and exit
 *
 * Batch service mode (instead of a single input file):
 *   --batch=MANIFEST      compile every TU listed in MANIFEST (one
 *                         path per line, # comments) with per-TU
 *                         fault isolation: a panicking, verifier-
 *                         rejected, or deadline-blown TU yields a
 *                         typed failure record while the rest of the
 *                         batch completes. Streaming-pass verifier
 *                         violations demote the TU down the
 *                         degradation ladder (full -> no-streaming ->
 *                         scalar-only) instead of failing it.
 *   --jobs=N              worker threads               (default 1)
 *   --tu-timeout-ms=N     per-TU attempt deadline      (0 = none)
 *   --max-retries=N       transient (timeout) retries  (default 2)
 *   --fail-fast           abort the batch on the first hard failure
 *   --batch-report=FILE   write the schema-versioned per-TU report
 *                         (status, attempts, degradation level, wall
 *                         time, aggregates) as JSON; "-" for stdout
 *
 * Exit status:
 *   0   success; a completed batch also exits 0 even when individual
 *       TUs were quarantined (the report carries per-TU status)
 *   1   user error (unreadable input, compile diagnostics, unwritable
 *       output file, unreadable manifest, aborted --fail-fast batch,
 *       --fifo-depth below the --infer-fifo-depth inferred minimum)
 *   2   usage error (unknown flag, bad value, no input, a "with
 *       --run" flag without --run)
 *   3   simulation runtime fault (out-of-bounds access, bad PC, ...)
 *   4   deadlock or livelock (watchdog / cycle-limit classification)
 *   70  internal compiler error (panic/assert — see support/diag.h —
 *       or --verify violations). Panics unwind as InternalError and
 *       are translated to this exit only here, at the tool boundary;
 *       in batch mode they are contained per TU and never exit.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "driver/compiler.h"
#include "m68k/printer.h"
#include "serve/batch.h"
#include "obs/counters.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/pass_profiler.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "report/manifest.h"
#include "timing/scalar_sim.h"
#include "wm/printer.h"
#include "wmsim/sim.h"
#include "wmsim/whatif.h"

using namespace wmstream;

namespace {

const char kVersion[] = "0.5.0";

/**
 * Every flag wmc accepts, with its value shape. The table is the
 * single source of truth: usage(), the unknown-option error, and the
 * doc comment above must all agree with it.
 */
const struct {
    const char *flag;
    const char *help;
} kFlags[] = {
    {"--target=wm|68020", "target machine (default: wm)"},
    {"--no-opt", "disable the classic optimizer phases"},
    {"--no-recurrence", "disable recurrence detection/optimization"},
    {"--no-streaming", "disable streaming"},
    {"--vectorize", "enable VEU vectorization"},
    {"--min-trip=N", "streaming trip-count threshold (default 4)"},
    {"--print-asm", "print the generated assembly"},
    {"--trace-partitions", "print the per-loop partition vectors"},
    {"--remarks[=text|json]",
     "print optimization remarks (default: text)"},
    {"--run", "execute on the simulator / timing model"},
    {"--stats", "with --run: print cycle statistics"},
    {"--stats-json=FILE",
     "with --run: write stats as JSON (\"-\" for stdout)"},
    {"--manifest=FILE",
     "write the unified run manifest JSON (\"-\" for stdout)"},
    {"--metrics-out=FILE",
     "write Prometheus-format metrics (\"-\" for stdout)"},
    {"--sample-window=N",
     "flight-recorder window span in cycles (default 1024)"},
    {"--trace-out=FILE",
     "with --run: write a Chrome trace-event pipeline trace"},
    {"--profile-passes", "print per-pass wall time and size deltas"},
    {"--mem-latency=N", "simulator memory latency (default 4)"},
    {"--fifo-depth=N", "simulator data FIFO depth (default 8)"},
    {"--lanes=N", "simulator VEU lanes (default 4)"},
    {"--max-cycles=N", "simulator cycle budget"},
    {"--watchdog-window=N",
     "deadlock watchdog window, cycles (0 disables; default 4096)"},
    {"--chaos-seed=N",
     "perturb simulator timing from seed N (0 = off)"},
    {"--fault-report[=text|json]",
     "with --run: print deadlock/livelock forensics"},
    {"--critpath[=text|json]",
     "with --run: critical-path attribution and what-if predictions"},
    {"--critpath-validate",
     "with --critpath: re-simulate what-if scenarios for validation"},
    {"--verify[=each|final]",
     "run the IR verifier; any violation exits 70 (default: each)"},
    {"--infer-fifo-depth",
     "static FIFO deadlock/depth analysis; exit 1 when --fifo-depth "
     "is below the inferred minimum"},
    {"--inject-deadlock-bug",
     "(self-test) under-count input streams to force a deadlock"},
    {"--inject-verifier-bug",
     "(self-test) drop one stream dequeue for --verify to catch"},
    {"--inject-panic-tu",
     "(self-test) panic mid-pipeline; batch mode must quarantine"},
    {"--batch=MANIFEST",
     "compile every TU in MANIFEST with per-TU fault isolation"},
    {"--jobs=N", "batch worker threads (default 1)"},
    {"--tu-timeout-ms=N", "batch per-TU attempt deadline (0 = none)"},
    {"--max-retries=N", "batch transient retries (default 2)"},
    {"--fail-fast", "abort the batch on the first hard failure"},
    {"--batch-report=FILE",
     "write the per-TU batch report JSON (\"-\" for stdout)"},
    {"--version", "print the version and exit"},
};

void
printFlagList(std::FILE *out)
{
    std::fprintf(out, "valid options:\n");
    for (const auto &f : kFlags)
        std::fprintf(out, "  %-22s %s\n", f.flag, f.help);
}

int
usage()
{
    std::fprintf(stderr, "usage: wmc [options] file.c\n"
                         "       wmc --batch=MANIFEST [options]\n");
    printFlagList(stderr);
    return 2;
}

enum class FlagMatch { NoMatch, Ok, BadValue };

/** Match `NAME=N`; reject non-numeric or empty values. */
FlagMatch
flagValue(const char *arg, const char *name, int *out)
{
    size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
        return FlagMatch::NoMatch;
    const char *val = arg + n + 1;
    char *end = nullptr;
    long v = std::strtol(val, &end, 10);
    if (end == val || *end != '\0') {
        std::fprintf(stderr, "wmc: bad numeric value in %s\n", arg);
        return FlagMatch::BadValue;
    }
    *out = static_cast<int>(v);
    return FlagMatch::Ok;
}

/** Match `NAME=N` for 64-bit unsigned values (cycle counts, seeds). */
FlagMatch
flagValue64(const char *arg, const char *name, uint64_t *out)
{
    size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
        return FlagMatch::NoMatch;
    const char *val = arg + n + 1;
    char *end = nullptr;
    unsigned long long v = std::strtoull(val, &end, 10);
    if (end == val || *end != '\0') {
        std::fprintf(stderr, "wmc: bad numeric value in %s\n", arg);
        return FlagMatch::BadValue;
    }
    *out = v;
    return FlagMatch::Ok;
}

/** Match `NAME=STRING`; empty values are rejected. */
FlagMatch
flagString(const char *arg, const char *name, std::string *out)
{
    size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
        return FlagMatch::NoMatch;
    if (arg[n + 1] == '\0') {
        std::fprintf(stderr, "wmc: empty value in %s\n", arg);
        return FlagMatch::BadValue;
    }
    *out = arg + n + 1;
    return FlagMatch::Ok;
}

/** Write @p text to @p path, or stdout when @p path is "-". */
bool
writeTextFile(const std::string &path, const std::string &text)
{
    if (path == "-") {
        std::fwrite(text.data(), 1, text.size(), stdout);
        std::fputc('\n', stdout);
        return true;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "wmc: cannot write %s\n", path.c_str());
        return false;
    }
    size_t n = std::fwrite(text.data(), 1, text.size(), f);
    bool ok = n == text.size();
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

/**
 * `wmc --batch=MANIFEST`: the fault-isolated batch service mode.
 * Exit 0 when the batch completes (quarantined TUs are data in the
 * report, not a process failure), 1 on an unreadable manifest, an
 * unwritable report, or a --fail-fast abort.
 */
int
runBatchMode(const std::string &manifestPath,
             const std::string &reportPath,
             const serve::BatchOptions &opts)
{
    std::vector<serve::TuJob> jobs;
    std::string error;
    if (!serve::loadManifest(manifestPath, jobs, error)) {
        std::fprintf(stderr, "wmc: %s\n", error.c_str());
        return 1;
    }
    serve::BatchReport report = serve::runBatch(jobs, opts);
    std::FILE *human = reportPath == "-" ? stderr : stdout;
    std::fprintf(human, "%s", report.summaryText().c_str());
    if (!reportPath.empty()) {
        obs::JsonWriter w;
        report.writeJson(w);
        if (!writeTextFile(reportPath, w.str()))
            return 1;
    }
    return report.aborted ? 1 : 0;
}

} // namespace

static int
wmcMain(int argc, char **argv)
{
    driver::CompileOptions options;
    std::string file, statsJsonPath, traceOutPath, manifestPath,
        metricsOutPath;
    serve::BatchOptions batch;
    std::string batchManifest, batchReportPath;
    uint64_t sampleWindow = 1024;
    bool sampleWindowSet = false;
    bool printAsm = false, tracePartitions = false, run = false,
         stats = false, profilePasses = false;
    enum class RemarkFormat { Off, Text, Json };
    RemarkFormat remarkFormat = RemarkFormat::Off;
    enum class FaultFormat { Off, Text, Json };
    FaultFormat faultFormat = FaultFormat::Off;
    enum class CritFormat { Off, Text, Json };
    CritFormat critFormat = CritFormat::Off;
    bool critValidate = false;
    wmsim::SimConfig simCfg;

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        int v = 0;
        FlagMatch m;
        auto numeric = [&](const char *name, int *out) {
            m = flagValue(a, name, out);
            return m != FlagMatch::NoMatch;
        };
        auto stringy = [&](const char *name, std::string *out) {
            m = flagString(a, name, out);
            return m != FlagMatch::NoMatch;
        };
        if (std::strcmp(a, "--target=wm") == 0) {
            options.target = rtl::MachineKind::WM;
        } else if (std::strcmp(a, "--target=68020") == 0) {
            options.target = rtl::MachineKind::Scalar;
        } else if (std::strcmp(a, "--no-opt") == 0) {
            options.optimize = false;
        } else if (std::strcmp(a, "--no-recurrence") == 0) {
            options.recurrence = false;
        } else if (std::strcmp(a, "--no-streaming") == 0) {
            options.streaming = false;
        } else if (std::strcmp(a, "--vectorize") == 0) {
            options.vectorize = true;
        } else if (numeric("--min-trip", &v)) {
            if (m == FlagMatch::BadValue)
                return usage();
            options.minStreamTripCount = v;
        } else if (std::strcmp(a, "--print-asm") == 0) {
            printAsm = true;
        } else if (std::strcmp(a, "--trace-partitions") == 0) {
            tracePartitions = true;
        } else if (std::strcmp(a, "--remarks") == 0 ||
                   std::strcmp(a, "--remarks=text") == 0) {
            remarkFormat = RemarkFormat::Text;
        } else if (std::strcmp(a, "--remarks=json") == 0) {
            remarkFormat = RemarkFormat::Json;
        } else if (std::strcmp(a, "--version") == 0) {
            std::printf("wmc (wmstream) %s\n", kVersion);
            return 0;
        } else if (std::strcmp(a, "--run") == 0) {
            run = true;
        } else if (std::strcmp(a, "--stats") == 0) {
            stats = true;
        } else if (std::strcmp(a, "--profile-passes") == 0) {
            profilePasses = true;
        } else if (stringy("--stats-json", &statsJsonPath) ||
                   stringy("--trace-out", &traceOutPath) ||
                   stringy("--manifest", &manifestPath) ||
                   stringy("--metrics-out", &metricsOutPath)) {
            if (m == FlagMatch::BadValue)
                return usage();
        } else if ((m = flagValue64(a, "--sample-window",
                                    &sampleWindow)) !=
                   FlagMatch::NoMatch) {
            if (m == FlagMatch::BadValue)
                return usage();
            if (sampleWindow == 0) {
                std::fprintf(stderr,
                             "wmc: --sample-window must be > 0\n");
                return usage();
            }
            sampleWindowSet = true;
        } else if (numeric("--mem-latency", &v)) {
            if (m == FlagMatch::BadValue)
                return usage();
            simCfg.memLatency = v;
        } else if (numeric("--fifo-depth", &v)) {
            if (m == FlagMatch::BadValue)
                return usage();
            // The hardware model cannot have empty or absurd FIFOs;
            // reject here so every downstream consumer (simulator,
            // depth inference, manifest) sees a sane value.
            if (v < 1 || v > 4096) {
                std::fprintf(stderr,
                             "wmc: --fifo-depth must be between 1 "
                             "and 4096 (got %d)\n",
                             v);
                return usage();
            }
            simCfg.dataFifoDepth = v;
        } else if (numeric("--lanes", &v)) {
            if (m == FlagMatch::BadValue)
                return usage();
            simCfg.veuLanes = v;
        } else if ((m = flagValue64(a, "--max-cycles",
                                    &simCfg.maxCycles)) !=
                   FlagMatch::NoMatch) {
            if (m == FlagMatch::BadValue)
                return usage();
        } else if ((m = flagValue64(a, "--watchdog-window",
                                    &simCfg.watchdogWindow)) !=
                   FlagMatch::NoMatch) {
            if (m == FlagMatch::BadValue)
                return usage();
        } else if ((m = flagValue64(a, "--chaos-seed",
                                    &simCfg.chaosSeed)) !=
                   FlagMatch::NoMatch) {
            if (m == FlagMatch::BadValue)
                return usage();
        } else if (std::strcmp(a, "--fault-report") == 0 ||
                   std::strcmp(a, "--fault-report=text") == 0) {
            faultFormat = FaultFormat::Text;
        } else if (std::strcmp(a, "--fault-report=json") == 0) {
            faultFormat = FaultFormat::Json;
        } else if (std::strcmp(a, "--critpath") == 0 ||
                   std::strcmp(a, "--critpath=text") == 0) {
            critFormat = CritFormat::Text;
        } else if (std::strcmp(a, "--critpath=json") == 0) {
            critFormat = CritFormat::Json;
        } else if (std::strcmp(a, "--critpath-validate") == 0) {
            critValidate = true;
        } else if (std::strcmp(a, "--verify") == 0 ||
                   std::strcmp(a, "--verify=each") == 0) {
            options.verify = driver::VerifyMode::Each;
        } else if (std::strcmp(a, "--verify=final") == 0) {
            options.verify = driver::VerifyMode::Final;
        } else if (std::strcmp(a, "--infer-fifo-depth") == 0) {
            options.inferFifoDepth = true;
        } else if (std::strcmp(a, "--inject-deadlock-bug") == 0) {
            options.injectStreamCountBug = true;
        } else if (std::strcmp(a, "--inject-verifier-bug") == 0) {
            options.injectVerifierBug = true;
        } else if (std::strcmp(a, "--inject-panic-tu") == 0) {
            options.injectPanicTu = true;
        } else if (stringy("--batch", &batchManifest) ||
                   stringy("--batch-report", &batchReportPath)) {
            if (m == FlagMatch::BadValue)
                return usage();
        } else if (numeric("--jobs", &batch.jobs) ||
                   numeric("--tu-timeout-ms", &batch.tuTimeoutMs) ||
                   numeric("--max-retries", &batch.maxRetries)) {
            if (m == FlagMatch::BadValue)
                return usage();
        } else if (std::strcmp(a, "--fail-fast") == 0) {
            batch.failFast = true;
        } else if (a[0] == '-') {
            std::fprintf(stderr, "wmc: unknown option %s\n", a);
            printFlagList(stderr);
            return 2;
        } else if (file.empty()) {
            file = a;
        } else {
            std::fprintf(stderr, "wmc: more than one input file "
                                 "(%s and %s)\n",
                         file.c_str(), a);
            return usage();
        }
    }
    // These flags report on a simulation; without --run there is none.
    const std::pair<bool, const char *> runOnly[] = {
        {stats, "--stats"},
        {!statsJsonPath.empty(), "--stats-json"},
        {!traceOutPath.empty(), "--trace-out"},
        {faultFormat != FaultFormat::Off, "--fault-report"},
        {critFormat != CritFormat::Off, "--critpath"},
    };
    for (const auto &[set, flag] : runOnly) {
        if (set && !run) {
            std::fprintf(stderr, "wmc: %s needs --run\n", flag);
            return usage();
        }
    }
    // The depth inference checks against the depth the hardware model
    // will actually run with, whatever order the flags came in.
    options.configuredFifoDepth = simCfg.dataFifoDepth;
    if (!batchManifest.empty()) {
        if (!file.empty()) {
            std::fprintf(stderr, "wmc: --batch does not take an "
                                 "input file (got %s)\n",
                         file.c_str());
            return usage();
        }
        // The compile flags above (--target, --no-streaming, the
        // inject self-tests, ...) form the batch's full-level base
        // configuration; runBatch arms --verify=each itself unless a
        // mode was chosen explicitly.
        batch.base = options;
        return runBatchMode(batchManifest, batchReportPath, batch);
    }
    if (file.empty())
        return usage();

    std::ifstream in(file);
    if (!in) {
        std::fprintf(stderr, "wmc: cannot open %s\n", file.c_str());
        return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();

    options.profilePasses = profilePasses;
    obs::PhaseTimer compileTimer;
    auto compiled = driver::compileSource(buf.str(), options);
    const double compileWallMs = compileTimer.elapsedMs();
    if (!compiled.ok) {
        std::fprintf(stderr, "%s", compiled.diagnostics.c_str());
        return 1;
    }
    if (!compiled.verifyClean()) {
        // A verifier violation is a compiler bug, never a user error:
        // report every checkpoint's findings and refuse the output.
        std::fprintf(stderr,
                     "wmc: internal error: IR verifier found "
                     "violations (%d checkpoint(s) run)\n",
                     compiled.verifyCheckpoints);
        std::fprintf(stderr, "%s", compiled.verifyText().c_str());
        return 70;
    }

    if (options.inferFifoDepth && compiled.fifoRequirements.analyzed) {
        const verify::FifoRequirements &fr = compiled.fifoRequirements;
        // When a JSON document owns stdout the table moves to stderr,
        // mirroring the --run human/JSON split below.
        std::FILE *fout = statsJsonPath == "-" || manifestPath == "-" ||
                                  critFormat == CritFormat::Json
                              ? stderr
                              : stdout;
        std::fprintf(fout,
                     "fifo requirements: %s (configured depth %d, "
                     "required %d)\n",
                     fr.verdict.c_str(), fr.configuredDepth,
                     fr.minDepth);
        for (const auto &q : fr.queues)
            std::fprintf(fout, "  %-6s min-depth %d%s%s\n",
                         q.name.c_str(), q.minDepth,
                         q.streamed ? "  (streamed)" : "",
                         q.bounded ? "" : "  (unbounded)");
        // A depth shortfall is a configuration error against
        // --fifo-depth, not a compiler bug: report and exit 1. (The
        // compiler-bug findings took the exit-70 path above.)
        bool depthErr = false;
        for (const auto &viol : fr.findings.violations)
            if (viol.reason == "fifo-depth-exceeded") {
                std::fprintf(stderr, "wmc: %s\n", viol.str().c_str());
                depthErr = true;
            }
        if (depthErr) {
            std::fprintf(stderr,
                         "wmc: --fifo-depth=%d is below the inferred "
                         "minimum of %d\n",
                         fr.configuredDepth, fr.minDepth);
            return 1;
        }
    }

    if (profilePasses)
        std::printf("%s",
                    obs::passProfileTable(compiled.passProfiles).c_str());

    if (tracePartitions) {
        for (const auto &r : compiled.recurrenceReports)
            for (const auto &dump : r.partitionDumps)
                std::printf("%s\n", dump.c_str());
    }

    if (remarkFormat == RemarkFormat::Json) {
        obs::JsonWriter w;
        compiled.remarks.writeJson(w, file);
        std::printf("%s\n", w.str().c_str());
    } else if (remarkFormat == RemarkFormat::Text) {
        std::printf("%s", compiled.remarks.text(file).c_str());
    }

    if (printAsm) {
        if (options.target == rtl::MachineKind::WM)
            std::printf("%s", wm::printProgram(*compiled.program).c_str());
        else
            std::printf("%s",
                        m68k::printProgram(*compiled.program).c_str());
    }

    // The run manifest bundles identity, host throughput, remarks,
    // stats, and the flight-recorder time series; sections for work
    // that did not happen are simply absent (a compile-only manifest
    // has no "stats").
    report::RunManifest man;
    man.toolVersion = kVersion;
    man.source = file;
    man.target =
        options.target == rtl::MachineKind::WM ? "wm" : "68020";
    man.host.compileWallMs = compileWallMs;
    man.compiled = &compiled;
    auto emitManifestAndMetrics = [&]() -> bool {
        if (!manifestPath.empty()) {
            obs::JsonWriter w;
            man.writeJson(w);
            if (!writeTextFile(manifestPath, w.str()))
                return false;
        }
        if (!metricsOutPath.empty()) {
            obs::MetricsRegistry m;
            report::exportRunMetrics(m, man);
            if (!writeTextFile(metricsOutPath, m.renderText()))
                return false;
        }
        return true;
    };

    if (!run)
        return emitManifestAndMetrics() ? 0 : 1;

    // With --stats-json=-, --manifest=- or --critpath=json a JSON
    // document owns stdout; the human-readable lines move to stderr
    // so the output stays parseable.
    std::FILE *human = statsJsonPath == "-" || manifestPath == "-" ||
                               critFormat == CritFormat::Json
                           ? stderr
                           : stdout;

    if (options.target == rtl::MachineKind::WM) {
        obs::TraceWriter trace;
        if (!traceOutPath.empty())
            simCfg.trace = &trace;
        if (!statsJsonPath.empty() || !manifestPath.empty())
            simCfg.collectOccupancy = true;
        // Flight recorder: on whenever the manifest wants the time
        // series or the window span was set explicitly.
        const bool sampling = !manifestPath.empty() || sampleWindowSet;
        obs::TimeSeries timeseries(wmsim::simTimeSeriesChannels(),
                                   sampleWindow);
        if (sampling)
            simCfg.timeseries = &timeseries;
        const bool critEnabled =
            critFormat != CritFormat::Off || critValidate;
        obs::CritPath critRec;
        if (critEnabled)
            simCfg.critpath = &critRec;
        obs::PhaseTimer simTimer;
        auto res = wmsim::simulate(*compiled.program, simCfg);
        man.host.simWallMs = simTimer.elapsedMs();
        man.host.simCycles = res.stats.cycles;
        man.simConfig = &simCfg;
        man.simResult = &res;
        if (sampling)
            man.timeseries = &timeseries;
        // Critical-path attribution + what-if predictions. Built
        // before the fault branch below: a faulted run still has an
        // end event at its last cycle, so the partial DAG attributes
        // and lands in the manifest; only the what-if re-simulations
        // are skipped (a speedup over a faulted run means nothing).
        report::CritPathReport critReport;
        if (critEnabled) {
            critReport.dag = &critRec;
            critReport.analysis = critRec.analyze();
            if (critReport.analysis.valid) {
                critReport.replayBaselineCycles = critRec.replay({});
                for (const auto &wi :
                     wmsim::critPathWhatIfs(simCfg)) {
                    report::WhatIfRow row;
                    row.name = wi.name;
                    row.description = wi.description;
                    row.predictedCycles = critRec.replay(wi.replay);
                    if (row.predictedCycles > 0.0)
                        row.predictedSpeedup =
                            critReport.replayBaselineCycles /
                            row.predictedCycles;
                    if (critValidate && wi.validatable && res.ok) {
                        auto re = wmsim::simulate(*compiled.program,
                                                  wi.resim);
                        if (re.ok && re.stats.cycles > 0) {
                            row.validated = true;
                            row.measuredCycles = static_cast<double>(
                                re.stats.cycles);
                            row.measuredSpeedup =
                                static_cast<double>(
                                    res.stats.cycles) /
                                row.measuredCycles;
                            row.errorPct =
                                std::fabs(row.predictedSpeedup -
                                          row.measuredSpeedup) /
                                row.measuredSpeedup * 100.0;
                        }
                    }
                    critReport.whatIf.push_back(row);
                }
            }
            man.critpath = &critReport;
            // Why-not-faster: one remark per source loop on the
            // critical path, naming its dominant critical edge (rows
            // are sorted by cycles, so the first row per loop wins).
            std::set<int> remarked;
            for (const auto &r : critReport.analysis.rows) {
                if (r.loop < 0 || !remarked.insert(r.loop).second)
                    continue;
                const obs::LoopRecord *lr =
                    compiled.remarks.findLoop(r.loop);
                obs::Remark rem;
                rem.pass = "critpath";
                rem.function = lr ? lr->function : "";
                rem.loopId = r.loop;
                if (lr)
                    rem.loc = lr->loc;
                rem.verdict = obs::RemarkVerdict::Missed;
                rem.reason = "critical-edge";
                obs::Remark &added =
                    compiled.remarks.add(std::move(rem));
                added.arg("unit", critRec.unitName(r.unit))
                    .arg("cause", critRec.causeName(r.cause))
                    .arg("critical_cycles",
                         static_cast<int64_t>(r.cycles));
                if (remarkFormat == RemarkFormat::Text)
                    std::fprintf(human, "%s:%s\n", file.c_str(),
                                 added.str().c_str());
            }
        }
        if (sampling && !traceOutPath.empty())
            report::addTimelineCounterTracks(trace, timeseries);
        if (!traceOutPath.empty() && !trace.writeFile(traceOutPath)) {
            std::fprintf(stderr, "wmc: cannot write %s\n",
                         traceOutPath.c_str());
            return 1;
        }
        if (!res.ok) {
            std::fprintf(stderr, "wmc: runtime error: %s\n",
                         res.error.c_str());
            bool wedge = res.fault == wmsim::SimFault::Deadlock ||
                         res.fault == wmsim::SimFault::Livelock;
            if (wedge && faultFormat == FaultFormat::Text)
                std::fprintf(stderr, "%s",
                             res.faultReport.text().c_str());
            if (wedge && faultFormat == FaultFormat::Json) {
                obs::JsonWriter w;
                res.faultReport.writeJson(w);
                std::printf("%s\n", w.str().c_str());
            }
            // Even a faulted run leaves machine-readable artifacts
            // for CI: kind, message, and the full forensic report;
            // the manifest embeds the same fault document as its
            // "stats" section.
            if (!statsJsonPath.empty()) {
                obs::JsonWriter w;
                report::writeWmFaultDoc(w, file, res);
                if (!writeTextFile(statsJsonPath, w.str()))
                    return 1;
            }
            if (critFormat == CritFormat::Text)
                std::fprintf(
                    stderr, "%s",
                    report::renderCritPathText(critReport).c_str());
            if (critFormat == CritFormat::Json) {
                obs::JsonWriter w;
                report::writeCritPathDoc(w, critReport);
                std::printf("%s\n", w.str().c_str());
            }
            if (!emitManifestAndMetrics())
                return 1;
            return wedge ? 4 : 3;
        }
        std::fprintf(human, "exit value: %lld\n",
                     static_cast<long long>(res.returnValue));
        if (stats) {
            std::fprintf(human,
                "cycles %llu, IEU %llu, FEU %llu, IFU %llu, loads %llu, "
                "stores %llu,\nstream in %llu, stream out %llu, vector "
                "%llu\n",
                static_cast<unsigned long long>(res.stats.cycles),
                static_cast<unsigned long long>(res.stats.ieuExecuted),
                static_cast<unsigned long long>(res.stats.feuExecuted),
                static_cast<unsigned long long>(res.stats.ifuExecuted),
                static_cast<unsigned long long>(res.stats.loadsIssued),
                static_cast<unsigned long long>(
                    res.stats.storesCommitted),
                static_cast<unsigned long long>(
                    res.stats.streamElementsIn),
                static_cast<unsigned long long>(
                    res.stats.streamElementsOut),
                static_cast<unsigned long long>(
                    res.stats.vectorElements));
        }
        if (critFormat == CritFormat::Text)
            std::fprintf(human, "%s",
                         report::renderCritPathText(critReport).c_str());
        if (critFormat == CritFormat::Json) {
            obs::JsonWriter w;
            report::writeCritPathDoc(w, critReport);
            std::printf("%s\n", w.str().c_str());
        }
        if (!statsJsonPath.empty()) {
            obs::JsonWriter w;
            report::writeWmStatsDoc(w, file, compiled, simCfg, res);
            if (!writeTextFile(statsJsonPath, w.str()))
                return 1;
        }
        if (!emitManifestAndMetrics())
            return 1;
    } else {
        if (!traceOutPath.empty())
            std::fprintf(stderr, "wmc: --trace-out ignored for the "
                                 "68020 target\n");
        auto model = timing::sun3_280Model();
        obs::PhaseTimer simTimer;
        auto res = timing::runScalar(*compiled.program, model);
        man.host.simWallMs = simTimer.elapsedMs();
        man.modelName = model.name;
        man.scalarResult = &res;
        if (!res.ok) {
            std::fprintf(stderr, "wmc: runtime error: %s\n",
                         res.error.c_str());
            // Faulted scalar runs leave the same machine-readable
            // artifacts as faulted WM runs: the stats document gains
            // a "fault" section and the metrics a wm_sim_fault=1
            // gauge, so CI collects forensics from every exit path.
            if (!statsJsonPath.empty()) {
                obs::JsonWriter w;
                report::writeScalarStatsDoc(w, file, model.name,
                                            compiled, res);
                if (!writeTextFile(statsJsonPath, w.str()))
                    return 1;
            }
            if (!emitManifestAndMetrics())
                return 1;
            return 3;
        }
        std::fprintf(human, "exit value: %lld\n",
                     static_cast<long long>(res.returnValue));
        if (stats)
            std::fprintf(human, "weighted cycles %.0f (%s), %llu instructions, "
                        "%llu memory refs\n",
                        res.cycles, model.name.c_str(),
                        static_cast<unsigned long long>(
                            res.instsExecuted),
                        static_cast<unsigned long long>(res.memoryRefs));
        if (!statsJsonPath.empty()) {
            obs::JsonWriter w;
            report::writeScalarStatsDoc(w, file, model.name, compiled,
                                        res);
            if (!writeTextFile(statsJsonPath, w.str()))
                return 1;
        }
        if (!emitManifestAndMetrics())
            return 1;
    }
    return 0;
}

/**
 * The process boundary is the only place a panic becomes an exit
 * code: library code raises InternalError (support/diag.h) and stays
 * reentrant; embedders like the batch runner catch it per TU; the
 * solo tool translates it to the historical exit 70 here.
 */
int
main(int argc, char **argv)
{
    try {
        return wmcMain(argc, argv);
    } catch (const InternalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 70;
    }
}
