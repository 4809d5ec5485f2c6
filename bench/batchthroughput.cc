/**
 * @file
 * Batch compile service: the deterministic work of serve::runBatch,
 * healthy and under fault isolation.
 *
 * Not a paper table — a harness health metric for the batch service
 * (`wmc --batch`). Two batches, each run with 1 and 4 workers:
 *
 *  - batch_cold: a healthy all-streamable batch. Its columns (tus, ok,
 *    attempts) must not depend on the worker count.
 *
 *  - batch_degraded: the same batch with every fourth TU poisoned
 *    (alternating injected panics and verifier bugs), pinning the
 *    ladder's deterministic work: attempts, demotions, quarantined.
 *    A regression here means the retry/demotion policy changed
 *    silently.
 *
 * benchdiff gates every column exactly.
 */

#include "bench/common.h"
#include "programs/programs.h"
#include "serve/batch.h"

using namespace wmstream;

namespace {

constexpr int kTus = 24;

/** The benched batch: kTus streamable kernels of varying size. */
std::vector<serve::TuJob>
healthyJobs()
{
    std::vector<serve::TuJob> jobs;
    for (int i = 0; i < kTus; ++i) {
        serve::TuJob j;
        j.id = "tu-" + std::to_string(i) + ".c";
        j.source = programs::dotProductSource(16 + 16 * (i % 8));
        jobs.push_back(std::move(j));
    }
    return jobs;
}

/** healthyJobs() with every fourth TU poisoned. */
std::vector<serve::TuJob>
poisonedJobs()
{
    auto jobs = healthyJobs();
    for (size_t i = 3; i < jobs.size(); i += 4) {
        if ((i / 4) % 2 == 0)
            jobs[i].injectPanic = true;
        else
            jobs[i].injectVerifierBug = true;
    }
    return jobs;
}

serve::BatchOptions
batchOptions(int workers)
{
    serve::BatchOptions bo;
    bo.base.verify = driver::VerifyMode::Each;
    bo.jobs = workers;
    bo.backoffBaseMs = 0;
    return bo;
}

void
printTable(wsbench::JsonReport &report)
{
    std::printf("Batch compile service (%d TUs, verify each).\n\n",
                kTus);
    std::printf("%-20s %6s %6s %10s %10s\n", "Batch", "ok", "quar",
                "attempts", "demotions");
    for (int workers : {1, 4}) {
        for (bool degraded : {false, true}) {
            auto jobs = degraded ? poisonedJobs() : healthyJobs();
            auto rep = serve::runBatch(jobs, batchOptions(workers));
            std::string label =
                std::string(degraded ? "batch_degraded" : "batch_cold") +
                ".j" + std::to_string(workers);
            std::printf("%-20s %6d %6d %10lld %10d\n", label.c_str(),
                        rep.ok, rep.quarantined(),
                        static_cast<long long>(rep.attempts),
                        rep.demotions);
            report.row(label)
                .num("tus", static_cast<double>(rep.total))
                .num("ok", static_cast<double>(rep.ok))
                .num("ok_degraded", static_cast<double>(rep.okDegraded))
                .num("failed", static_cast<double>(rep.failed))
                .num("quarantined",
                     static_cast<double>(rep.quarantined()))
                .num("attempts", static_cast<double>(rep.attempts))
                .num("demotions", static_cast<double>(rep.demotions));
        }
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
    if (!wsbench::emitJson(jsonOut, "batchthroughput", report))
        return 1;
    return 0;
}
