/**
 * @file
 * wmfuzz — the differential-fuzzing campaign runner.
 *
 * Generates random loop programs from a single seed, compiles each in
 * every CompileOptions configuration for both targets (WM on the
 * cycle simulator, scalar on the executing timing model), and diffs
 * every result against the AST interpreter oracle across N worker
 * threads. Divergences are deduplicated by (pass configuration,
 * divergence signature), delta-debugged down to minimal reproducers,
 * and written out as self-contained .c files plus a JSON campaign
 * report.
 *
 * Exit status: 0 on a clean campaign, 1 if any divergence survives,
 * 2 on usage errors. CI runs the time-boxed smoke mode:
 *
 *   wmfuzz --max-programs=500 --jobs=$(nproc) --seed=1 \
 *          --report-json=campaign.json --repro-dir=repros
 *
 * Usage:
 *   wmfuzz [options]
 *
 * Options:
 *   --seed=S           campaign seed (default 1); the program stream
 *                      is a pure function of the seed, independent of
 *                      --jobs
 *   --max-programs=N   programs to generate (default 1000)
 *   --jobs=N           worker threads (default: hardware concurrency)
 *   --report-json=FILE write the campaign report as JSON; "-" stdout
 *   --repro-dir=DIR    write minimized reproducer .c files here
 *   --no-minimize      keep raw divergences unminimized
 *   --quiet            suppress the per-100-programs progress line
 *   --chaos-seeds=N    arm the chaos determinism oracle: re-run every
 *                      clean WM simulation N more times under seeded
 *                      timing perturbation (memory latency jitter,
 *                      port withholding, fetch-width wobble) and
 *                      report any architectural divergence
 *
 * Hidden (self-test only):
 *   --inject-recurrence-bug   disable the recurrence optimizer's
 *                             same-cell legality check; the campaign
 *                             must catch the resulting miscompiles
 *   --inject-deadlock-bug     start every non-steering input stream
 *                             one element short; the watchdog must
 *                             classify the wedge and the campaign
 *                             must dedup it by wait-for signature
 *   --inject-verifier-bug     drop one input stream's FIFO dequeue;
 *                             the IR-verifier oracle must flag it at
 *                             compile time (verify_error) and the
 *                             campaign must dedup it by violation
 *                             signature
 *
 * Batch-campaign mode (`--batch-campaign`), the fourth fuzzing mode:
 * generate --max-programs TUs, deterministically poison
 * --fault-rate-pct percent of them with the hidden fault-injection
 * flags, compile the whole set through the serve batch runner, and
 * audit fault isolation: healthy TUs must compile bit-identically to
 * solo compiles, panic-poisoned TUs must be quarantined with typed
 * records, verifier-poisoned TUs must be rescued by the degradation
 * ladder (ok_degraded at the no-streaming rung). Exit 0 when every
 * property holds, 1 otherwise.
 *
 *   --batch-campaign          run the batch fault-isolation campaign
 *   --fault-rate-pct=N        percent of TUs to poison (default 5)
 *   --inject-panic-tu         arm unrescuable panic poisoning
 *   --inject-verifier-bug     (with --batch-campaign) arm rescuable
 *                             verifier-bug poisoning
 *   --tu-timeout-ms=N         per-TU deadline forwarded to the batch
 *   --max-retries=N           transient retries (default 2)
 *   --batch-dir=DIR           write the TU set + MANIFEST here so
 *                             `wmc --batch` can replay the campaign
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "fuzz/batch_campaign.h"
#include "fuzz/campaign.h"
#include "obs/json.h"
#include "support/diag.h"

using namespace wmstream;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: wmfuzz [--seed=S] [--max-programs=N] "
                 "[--jobs=N]\n"
                 "              [--report-json=FILE] [--repro-dir=DIR] "
                 "[--no-minimize]\n"
                 "              [--quiet] [--chaos-seeds=N]\n"
                 "       wmfuzz --batch-campaign [--fault-rate-pct=N]\n"
                 "              [--inject-panic-tu] "
                 "[--inject-verifier-bug]\n"
                 "              [--tu-timeout-ms=N] [--max-retries=N] "
                 "[--batch-dir=DIR]\n");
    return 2;
}

bool
parseUint(const char *arg, const char *name, uint64_t *out)
{
    size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
        return false;
    const char *val = arg + n + 1;
    char *end = nullptr;
    unsigned long long v = std::strtoull(val, &end, 10);
    if (end == val || *end != '\0') {
        std::fprintf(stderr, "wmfuzz: bad numeric value in %s\n", arg);
        std::exit(usage());
    }
    *out = v;
    return true;
}

bool
parseString(const char *arg, const char *name, std::string *out)
{
    size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
        return false;
    if (arg[n + 1] == '\0') {
        std::fprintf(stderr, "wmfuzz: empty value in %s\n", arg);
        std::exit(usage());
    }
    *out = arg + n + 1;
    return true;
}

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
        std::fprintf(stderr, "wmfuzz: cannot write %s\n", path.c_str());
        return false;
    }
    size_t n = std::fwrite(text.data(), 1, text.size(), f);
    bool ok = n == text.size();
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

/** The `--batch-campaign` mode: fault-isolation audit of the serve
 *  batch runner. */
int
runBatchCampaignMode(const fuzz::BatchCampaignOptions &opts,
                     const std::string &reportJsonPath)
{
    fuzz::BatchCampaignResult res = fuzz::runBatchCampaign(opts);

    if (!reportJsonPath.empty()) {
        obs::JsonWriter w;
        fuzz::writeBatchCampaignJson(w, opts, res);
        if (!writeTextFile(reportJsonPath, w.str()))
            return 1;
    }

    std::FILE *human = reportJsonPath == "-" ? stderr : stdout;
    std::fprintf(
        human,
        "wmfuzz: batch campaign: %d TUs (%d healthy, %d panic-"
        "poisoned, %d verifier-poisoned) in %.1fs (%d jobs, seed "
        "%llu)\n",
        res.tusGenerated, res.healthy, res.poisonedPanic,
        res.poisonedVerify, res.elapsedSeconds, opts.jobs,
        static_cast<unsigned long long>(opts.seed));
    std::fprintf(human, "%s", res.report.summaryText().c_str());
    if (res.clean()) {
        std::fprintf(human,
                     "wmfuzz: batch campaign clean: %d quarantined == "
                     "%d poisoned, healthy TUs bit-identical to solo "
                     "compiles\n",
                     res.report.quarantined(),
                     res.poisonedPanic + res.poisonedVerify);
        return 0;
    }
    std::fprintf(human, "wmfuzz: %d isolation problems:\n",
                 static_cast<int>(res.problems.size()));
    for (const std::string &p : res.problems)
        std::fprintf(human, "  %s\n", p.c_str());
    return 1;
}

} // namespace

static int
fuzzMain(int argc, char **argv)
{
    fuzz::CampaignOptions opts;
    opts.jobs =
        static_cast<int>(std::thread::hardware_concurrency());
    if (opts.jobs < 1)
        opts.jobs = 1;
    opts.progress = true;
    std::string reportJsonPath;
    bool batchCampaign = false;
    fuzz::BatchCampaignOptions batchOpts;

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        uint64_t v = 0;
        if (parseUint(a, "--seed", &opts.seed)) {
        } else if (parseUint(a, "--max-programs", &v)) {
            opts.maxPrograms = static_cast<int>(v);
        } else if (parseUint(a, "--jobs", &v)) {
            if (v < 1 || v > 1024) {
                std::fprintf(stderr, "wmfuzz: bad --jobs value\n");
                return usage();
            }
            opts.jobs = static_cast<int>(v);
        } else if (parseString(a, "--report-json", &reportJsonPath)) {
        } else if (parseString(a, "--repro-dir", &opts.reproDir)) {
        } else if (std::strcmp(a, "--no-minimize") == 0) {
            opts.minimize = false;
        } else if (std::strcmp(a, "--quiet") == 0) {
            opts.progress = false;
        } else if (parseUint(a, "--chaos-seeds", &v)) {
            if (v > 10000) {
                std::fprintf(stderr,
                             "wmfuzz: bad --chaos-seeds value\n");
                return usage();
            }
            opts.chaosSeeds = static_cast<int>(v);
        } else if (std::strcmp(a, "--inject-recurrence-bug") == 0) {
            opts.injectRecurrenceBug = true;
        } else if (std::strcmp(a, "--inject-deadlock-bug") == 0) {
            opts.injectStreamCountBug = true;
        } else if (std::strcmp(a, "--inject-verifier-bug") == 0) {
            opts.injectVerifierBug = true;
            batchOpts.injectVerifierBug = true;
        } else if (std::strcmp(a, "--batch-campaign") == 0) {
            batchCampaign = true;
        } else if (std::strcmp(a, "--inject-panic-tu") == 0) {
            batchOpts.injectPanicTu = true;
        } else if (parseUint(a, "--fault-rate-pct", &v)) {
            if (v > 100) {
                std::fprintf(stderr,
                             "wmfuzz: bad --fault-rate-pct value\n");
                return usage();
            }
            batchOpts.faultRatePct = static_cast<int>(v);
        } else if (parseUint(a, "--tu-timeout-ms", &v)) {
            batchOpts.tuTimeoutMs = static_cast<int>(v);
        } else if (parseUint(a, "--max-retries", &v)) {
            batchOpts.maxRetries = static_cast<int>(v);
        } else if (parseString(a, "--batch-dir", &batchOpts.batchDir)) {
        } else {
            std::fprintf(stderr, "wmfuzz: unknown option %s\n", a);
            return usage();
        }
    }
    if (opts.maxPrograms < 1) {
        std::fprintf(stderr, "wmfuzz: --max-programs must be >= 1\n");
        return usage();
    }
    if (batchCampaign) {
        batchOpts.seed = opts.seed;
        batchOpts.numTus = opts.maxPrograms;
        batchOpts.jobs = opts.jobs;
        batchOpts.progress = opts.progress;
        return runBatchCampaignMode(batchOpts, reportJsonPath);
    }

    auto res = fuzz::runCampaign(opts);

    if (!reportJsonPath.empty()) {
        obs::JsonWriter w;
        fuzz::writeCampaignJson(w, opts, res);
        if (!writeTextFile(reportJsonPath, w.str()))
            return 1;
    }

    std::FILE *human = reportJsonPath == "-" ? stderr : stdout;
    std::fprintf(human,
                 "wmfuzz: %d programs x %lld checks in %.1fs "
                 "(%.0f programs/s, %d jobs, seed %llu)\n",
                 res.programsRun,
                 static_cast<long long>(
                     res.programsRun
                         ? res.checksRun / res.programsRun
                         : 0),
                 res.elapsedSeconds,
                 res.elapsedSeconds > 0
                     ? res.programsRun / res.elapsedSeconds
                     : 0.0,
                 opts.jobs,
                 static_cast<unsigned long long>(opts.seed));
    if (res.staticDeadlockFree + res.staticFlagged > 0)
        std::fprintf(human,
                     "wmfuzz: static FIFO verdicts: %lld "
                     "deadlock-free, %lld flagged; %lld re-simulated "
                     "at the inferred minimum depth\n",
                     static_cast<long long>(res.staticDeadlockFree),
                     static_cast<long long>(res.staticFlagged),
                     static_cast<long long>(res.staticDepthResims));
    if (res.clean()) {
        std::fprintf(human, "wmfuzz: campaign clean, no divergences\n");
        return 0;
    }
    std::fprintf(human,
                 "wmfuzz: %d raw divergences, %d unique after dedup:\n",
                 res.rawDivergences,
                 static_cast<int>(res.divergences.size()));
    for (const auto &d : res.divergences) {
        std::fprintf(human, "  [%s] %s (+%d duplicates)",
                     fuzz::divergenceKindName(d.kind),
                     d.signature.c_str(), d.duplicates);
        if (!d.reproPath.empty())
            std::fprintf(human, " -> %s", d.reproPath.c_str());
        std::fprintf(human, "\n");
    }
    return 1;
}

/** Translate an escaped InternalError to the historical exit 70 at
 *  the process boundary (see support/diag.h). Campaign workers catch
 *  panics per program; this shim only fires for bugs in the harness
 *  itself. */
int
main(int argc, char **argv)
{
    try {
        return fuzzMain(argc, argv);
    } catch (const InternalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 70;
    }
}
