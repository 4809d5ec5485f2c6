/**
 * @file
 * Whole-program static FIFO deadlock & depth-requirement analysis.
 *
 * Where fifolint proves per-pass queue discipline (exact-depth joins,
 * per-iteration stream balance), this analysis answers two
 * whole-program questions about the final lowered code:
 *
 *  (a) deadlock-freedom: is there any path on which a unit blocks on
 *      a pop that can never be fed, or on a push into a queue the
 *      configured depth provably cannot absorb?
 *  (b) depth requirement: the minimal FIFO depth each queue needs so
 *      that no push ever blocks — the high-water count over the full
 *      CFG, loop boundaries included.
 *
 * It walks nothing itself. The discipline check's depth walk keeps
 * one exact count per queue and block (joins must agree), so on
 * every discipline-clean function its counts are the occupancy, and
 * it records the high-water mark, saturation and starved pops per
 * queue (fifomodel::QueueTraffic). A function that is not clean is
 * "not-proven" whatever its counts say. Stream-claimed queues are
 * hardware-throttled (the SCU stops filling a full FIFO and resumes
 * as the loop drains it), so they require depth 1 and are exempt from
 * the walk inside their loop.
 *
 * The verdict is "deadlock-free" only when the structural and
 * queue-discipline checks pass, no pop finds its queue empty, and
 * every inferred minimum fits the configured depth. A clean verdict
 * is the static half of the wmfuzz agreement oracle: static
 * deadlock-free must imply the simulator watchdog stays silent.
 */

#include "verify/verify.h"

#include <algorithm>
#include <array>
#include <utility>

#include "support/str.h"
#include "verify/fifo_model.h"

namespace wmstream::verify {

using namespace fifomodel;

FifoRequirements
analyzeFifoRequirements(rtl::Program &prog,
                        const rtl::MachineTraits &traits,
                        int configuredDepth)
{
    FifoRequirements result;
    result.configuredDepth = configuredDepth;
    result.findings.pass = "fifo-depth";
    result.findings.stage = Stage::PostLower;
    if (!traits.isWM())
        return result; // scalar targets have no visible queues
    result.analyzed = true;

    VerifyOptions opts;
    opts.stage = Stage::PostLower;
    opts.pass = "fifo-depth";

    std::array<QueueRequirement, kQueues> reqs{};
    std::array<bool, kQueues> touched{};
    bool disciplineClean = true;

    for (auto &fnp : prog.functions()) {
        rtl::Function &fn = *fnp;
        // Self-contained: the verdict must be trustworthy even when
        // the caller skipped the per-pass verifier (fuzzer configs
        // with planted bugs), so structure + discipline rerun here.
        VerifyReport discipline;
        discipline.pass = opts.pass;
        discipline.stage = opts.stage;
        QueueTraffic traffic;
        if (detail::checkStructure(fn, traits, opts, &prog, discipline))
            detail::checkQueueDiscipline(fn, traits, opts, discipline,
                                         &traffic);
        if (!discipline.ok()) {
            disciplineClean = false;
            Violation &v = detail::addViolation(
                result.findings, "static-unproven", fn);
            v.invariant = joinedSignature({discipline});
            v.detail = strFormat(
                "deadlock-freedom not provable: %zu queue-discipline "
                "finding(s) [%s]",
                discipline.violations.size(),
                joinedSignature({discipline}).c_str());
        }

        for (int q = 0; q < kQueues; ++q) {
            QueueRequirement &req = reqs[q];
            // The SCU throttles on a full FIFO: any depth >= 1 works
            // for a claimed queue, deeper only buffers further ahead.
            if (traffic.claimed[q]) {
                req.streamed = true;
                req.minDepth = std::max(req.minDepth, 1);
            }
            req.minDepth = std::max(req.minDepth, traffic.highWater[q]);
            req.bounded = req.bounded && !traffic.saturated[q];
            touched[q] = touched[q] || traffic.claimed[q] ||
                         traffic.touched[q];
            // A pop that finds its queue empty can never be fed: the
            // unit blocks forever.
            if (!traffic.starved[q])
                continue;
            Violation &v = detail::addViolation(
                result.findings, "static-starved-pop", fn);
            v.invariant = queueName(q);
            v.detail = strFormat(
                "pop of %s whose occupancy is provably zero on every "
                "path: nothing ever feeds it, the unit blocks forever",
                queueName(q).c_str());
        }
    }

    // Per-queue rollup, data queues first then cc, stable order.
    for (int q = 0; q < kQueues; ++q) {
        if (!touched[q])
            continue;
        reqs[q].queue = q;
        reqs[q].name = queueName(q);
        result.queues.push_back(reqs[q]);
        if (q < kDataQueues)
            result.minDepth = std::max(result.minDepth, reqs[q].minDepth);
    }

    // Configured depth must absorb the high-water mark of every data
    // queue, or a push can block on a provably full FIFO.
    for (const QueueRequirement &req : result.queues) {
        if (req.queue >= kDataQueues)
            continue;
        if (req.minDepth <= configuredDepth && req.bounded)
            continue;
        Violation v;
        v.reason = "fifo-depth-exceeded";
        v.function = "";
        v.invariant = req.name;
        v.detail = req.bounded
            ? strFormat("queue %s needs depth %d but the configured "
                        "data FIFO depth is %d: a push can block on "
                        "a provably full queue",
                        req.name.c_str(), req.minDepth,
                        configuredDepth)
            : strFormat("occupancy of %s is unbounded (grew past "
                        "the analysis cap of %d)",
                        req.name.c_str(), kSaturatedDepth);
        result.findings.violations.push_back(std::move(v));
    }

    bool starvedOrDeep = !result.findings.ok();
    result.deadlockFree = disciplineClean && !starvedOrDeep;
    result.verdict =
        result.deadlockFree ? "deadlock-free" : "not-proven";
    return result;
}

} // namespace wmstream::verify
