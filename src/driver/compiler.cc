#include "driver/compiler.h"

#include <chrono>
#include <thread>

#include "cfg/dominators.h"
#include "cfg/loops.h"
#include "expand/expander.h"
#include "frontend/parser.h"
#include "opt/passes.h"
#include "support/str.h"
#include "wm/lowering.h"

namespace wmstream::driver {

int
CompileResult::totalRecurrences() const
{
    int n = 0;
    for (const auto &r : recurrenceReports)
        n += r.recurrencesOptimized;
    return n;
}

int
CompileResult::totalStreams() const
{
    int n = 0;
    for (const auto &r : streamingReports)
        n += r.streamsIn + r.streamsOut;
    return n;
}

int
CompileResult::totalVectorized() const
{
    int n = 0;
    for (const auto &r : vectorizeReports)
        n += r.loopsVectorized;
    return n;
}

std::string
CompileResult::verifyText() const
{
    std::string s;
    for (const auto &rep : verifyReports)
        s += rep.str();
    return s;
}

namespace {

int64_t
countInsts(const rtl::Function &fn)
{
    int64_t n = 0;
    for (const auto &bp : fn.blocks())
        n += static_cast<int64_t>(bp->insts.size());
    return n;
}

int64_t
countInsts(const rtl::Program &prog)
{
    int64_t n = 0;
    for (const auto &fp : prog.functions())
        n += countInsts(*fp);
    return n;
}

rtl::WorkCounts
totalWork(const rtl::Program &prog)
{
    rtl::WorkCounts w;
    for (const auto &fp : prog.functions()) {
        w.cfgRecomputes += fp->work.cfgRecomputes;
        w.defUseBuilds += fp->work.defUseBuilds;
        w.defUseBlockRescans += fp->work.defUseBlockRescans;
    }
    return w;
}

/** Report the analysis work pass @p pass did as its counters. */
void
addWorkCounters(obs::PassProfiler &prof, const std::string &pass,
                const rtl::WorkCounts &before, const rtl::WorkCounts &after)
{
    auto add = [&](const char *key, int64_t delta) {
        if (delta)
            prof.addCounter(pass, key, delta);
    };
    add("cfg_recomputes", after.cfgRecomputes - before.cfgRecomputes);
    add("defuse_builds", after.defUseBuilds - before.defUseBuilds);
    add("defuse_block_rescans",
        after.defUseBlockRescans - before.defUseBlockRescans);
}

/**
 * Registry id for a final-code loop. Header labels normally survive
 * every phase, but block merges can retire them, so fall back to
 * matching any block label of the loop before registering it as new.
 */
int
resolveLoopId(obs::RemarkCollector &rc, const rtl::Function &fn,
              const cfg::Loop &loop)
{
    for (const obs::LoopRecord &l : rc.loops())
        if (l.function == fn.name() && l.header == loop.header->label())
            return l.id;
    for (const obs::LoopRecord &l : rc.loops()) {
        if (l.function != fn.name())
            continue;
        for (rtl::Block *b : loop.blocks)
            if (b->label() == l.header)
                return l.id;
    }
    return rc.loopId(fn.name(), loop.header->label(), cfg::loopPos(loop));
}

/**
 * The loop-tagging step: after all optimization and lowering, stamp
 * every instruction with the id of the innermost loop containing it.
 * Instructions outside every loop keep a pass-assigned id if they have
 * one (stream setup and recurrence priming in preheaders charge to the
 * loop they feed), else stay -1. Runs before layout so the simulator
 * sees the ids; this is the join key between optimization remarks and
 * per-loop cycle buckets.
 */
void
tagLoops(rtl::Program &program, obs::RemarkCollector &rc)
{
    for (auto &fn : program.functions()) {
        fn->recomputeCfg();
        cfg::DominatorTree dt(*fn);
        cfg::LoopInfo li(*fn, dt);
        // Outermost first so inner loops overwrite shared blocks:
        // LoopInfo lists innermost first, and loops of equal size are
        // disjoint, so the reverse walk is enough.
        for (auto loop = li.loops().rbegin(); loop != li.loops().rend();
             ++loop) {
            int id = resolveLoopId(rc, *fn, *loop);
            for (rtl::Block *b : loop->blocks)
                for (rtl::Inst &inst : b->insts)
                    inst.loopId = id;
        }
    }
}

} // anonymous namespace

CompileResult
compile(const CompileRequest &req)
{
    const CompileOptions &options = req.options;
    CompileResult res;
    res.traits = options.target == rtl::MachineKind::WM
                     ? rtl::wmTraits()
                     : rtl::scalarTraits();

    obs::PassProfiler prof(options.profilePasses);

    // Pipeline checkpoint: the cooperative cancellation point and the
    // RTL-budget fuse. Called between passes only, so a cancelled
    // compile always unwinds from a consistent boundary.
    auto checkpoint = [&] {
        if (options.cancel && options.cancel->load())
            throw CancelledError("deadline",
                                 "per-TU deadline expired");
        if (options.maxRtlInsts > 0 && res.program &&
            countInsts(*res.program) > options.maxRtlInsts)
            throw CancelledError("rtl-budget",
                                 "RTL instruction budget exceeded");
    };

    DiagEngine diag;
    std::unique_ptr<frontend::TranslationUnit> unit;
    prof.measure(
        "frontend", [] { return int64_t{0}; },
        [&] { unit = frontend::parseAndCheck(req.source, diag); });
    if (options.testStallMs > 0) {
        // serve_test hook: a deterministically slow compile that
        // stays responsive to cancellation (checked every 1ms).
        auto until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(options.testStallMs);
        while (std::chrono::steady_clock::now() < until) {
            checkpoint();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
    checkpoint();
    if (!unit) {
        res.diagnostics = diag.str();
        res.passProfiles = prof.profiles();
        return res;
    }

    res.program = std::make_unique<rtl::Program>();
    prof.measure(
        "expand", [&] { return countInsts(*res.program); },
        [&] {
            expand::expandUnit(*unit, res.traits, *res.program,
                               res.remarks);
        });
    addWorkCounters(prof, "expand", {}, totalWork(*res.program));
    unit.reset(); // the passes read only the RTL
    checkpoint();
    if (options.injectPanicTu)
        WS_PANIC("injected panic (batch-isolation self-test)");

    // Verifier checkpoints (CompileOptions::verify). Violations are
    // compiler bugs: they are kept verbatim in res.verifyReports and
    // mirrored into the remarks stream so wmreport joins them with the
    // provoking pass and loop like any other remark.
    auto recordVerify = [&](verify::VerifyReport rep) {
        ++res.verifyCheckpoints;
        if (rep.ok())
            return;
        for (const verify::Violation &v : rep.violations) {
            obs::Remark r;
            r.pass = "verify";
            r.function = v.function;
            r.loc = v.pos;
            r.verdict = obs::RemarkVerdict::Missed;
            r.reason = v.reason;
            if (!v.loopHeader.empty())
                r.loopId =
                    res.remarks.loopId(v.function, v.loopHeader, v.pos);
            r.arg("after_pass", rep.pass)
                .arg("stage", verify::stageName(rep.stage))
                .arg("invariant", v.invariant);
            res.remarks.add(std::move(r));
        }
        res.verifyReports.push_back(std::move(rep));
    };
    // Per-function checkpoint after one pass in Each mode. Pre-regalloc
    // passes check at PostOpt (virtual registers still legal, data-FIFO
    // depths not yet meaningful); regalloc checks at PostRegalloc.
    auto verifyAfter = [&](rtl::Function &fn, const char *passName,
                           verify::Stage stage) {
        // Every pass boundary is also a cancellation/budget
        // checkpoint, in every verify mode.
        checkpoint();
        if (options.verify != VerifyMode::Each)
            return;
        verify::VerifyOptions vo;
        vo.stage = stage;
        vo.pass = passName;
        recordVerify(verify::verifyFunction(fn, res.traits, vo,
                                            res.program.get()));
    };
    constexpr auto kPostOpt = verify::Stage::PostOpt;
    // A pass that reports no change leaves the IR that the PostOpt
    // checkpoint before it saw, so its own checkpoint is skipped (and
    // counted); the cancellation checkpoint still runs.
    auto verifyIfChanged = [&](rtl::Function &fn, const char *passName,
                               bool changed) {
        if (changed || options.verify != VerifyMode::Each) {
            verifyAfter(fn, passName, kPostOpt);
            return;
        }
        checkpoint();
        ++res.verifySkipped;
    };
    // A fixpoint that stopped at its cap is made loud: a missed
    // remark, which wmfuzz counts as a divergence.
    auto capHitRemark = [](const char *pass, const rtl::Function &fn,
                           int cap) {
        obs::Remark r;
        r.pass = pass;
        r.function = fn.name();
        r.verdict = obs::RemarkVerdict::Missed;
        r.reason = "fixpoint-cap-hit";
        r.arg("cap", int64_t{cap});
        return r;
    };
    // Every cleanup reports its rounds as a work counter; one that
    // stopped at the round cap still changing code gets the remark.
    auto noteCleanup = [&](const rtl::Function &fn,
                           const opt::CleanupResult &cr,
                           const char *label) {
        prof.addCounter(label, "cleanup_rounds", cr.rounds);
        if (cr.converged)
            return;
        obs::Remark r = capHitRemark("cleanup", fn, opt::kCleanupRoundCap);
        r.arg("after_pass", label);
        res.remarks.add(std::move(r));
    };

    if (options.verify == VerifyMode::Each) {
        verify::VerifyOptions vo;
        vo.stage = verify::Stage::PostExpand;
        vo.pass = "expand";
        recordVerify(verify::verifyProgram(*res.program, res.traits,
                                           vo));
    }

    for (auto &fn : res.program->functions()) {
        auto insts = [&] { return countInsts(*fn); };
        auto measure = [&](const char *label, auto &&body) {
            rtl::WorkCounts before = fn->work;
            prof.measure(label, insts, body);
            addWorkCounters(prof, label, before, fn->work);
        };

        // The one cleanup rule: the cleanup fixpoint runs again after
        // a pass only when that pass changed code. Otherwise the
        // function is still at the last cleanup's fixpoint.
        auto cleanupAfter = [&](const char *label) {
            opt::CleanupResult cr;
            measure(label,
                    [&] { cr = opt::runCleanup(*fn, res.traits); });
            noteCleanup(*fn, cr, label);
            verifyAfter(*fn, label, kPostOpt);
        };

        if (options.optimize) {
            opt::CleanupResult cr;
            measure("cleanup", [&] {
                cr = opt::runCleanupPipeline(*fn, res.traits,
                                             res.program.get());
            });
            noteCleanup(*fn, cr, "cleanup");
            verifyAfter(*fn, "cleanup", kPostOpt);
        } else {
            measure("legalize",
                    [&] { opt::runLegalize(*fn, res.traits); });
            verifyAfter(*fn, "legalize", kPostOpt);
        }

        if (options.recurrence) {
            measure("recurrence", [&] {
                res.recurrenceReports.push_back(
                    recurrence::runRecurrenceOpt(
                        *fn, res.traits, res.remarks,
                        options.injectRecurrenceDistanceBug));
            });
            const auto &rr = res.recurrenceReports.back();
            prof.addCounter("recurrence", "loops_examined",
                            rr.loopsExamined);
            prof.addCounter("recurrence", "recurrences_optimized",
                            rr.recurrencesOptimized);
            prof.addCounter("recurrence", "loads_deleted",
                            rr.loadsDeleted);
            verifyIfChanged(*fn, "recurrence",
                            rr.recurrencesOptimized > 0);
            // The chain shape only exists right after the pass: copy
            // propagation legitimately dissolves it, so legality is
            // checked here regardless of mode (the check is cheap and
            // the shape is unrecoverable later).
            if (options.verify != VerifyMode::Off)
                recordVerify(verify::verifyRecurrenceChains(
                    *fn, rr.chains, "recurrence"));
            // The paper: "after performing the recurrence
            // transformations, the optimizer invokes other phases" —
            // copy propagation removes the chain shift when possible.
            if (options.optimize && rr.recurrencesOptimized > 0)
                cleanupAfter("recurrence-cleanup");
        }

        if (options.streaming && res.traits.hasStreams) {
            measure("streaming", [&] {
                res.streamingReports.push_back(streaming::runStreaming(
                    *fn, res.traits, res.remarks,
                    options.minStreamTripCount,
                    options.injectStreamCountBug,
                    options.injectVerifierBug));
            });
            const auto &sr = res.streamingReports.back();
            prof.addCounter("streaming", "loops_examined",
                            sr.loopsExamined);
            prof.addCounter("streaming", "loops_streamed",
                            sr.loopsStreamed);
            prof.addCounter("streaming", "streams_in", sr.streamsIn);
            prof.addCounter("streaming", "streams_out", sr.streamsOut);
            verifyIfChanged(*fn, "streaming", sr.loopsStreamed > 0);
            if (options.optimize && sr.loopsStreamed > 0)
                cleanupAfter("streaming-cleanup");
            // Vectorization recognizes the post-cleanup single-
            // instruction loop bodies.
            if (options.vectorize) {
                measure("vectorize", [&] {
                    res.vectorizeReports.push_back(
                        streaming::runVectorize(*fn, res.traits));
                });
                int vectorized = res.vectorizeReports.back().loopsVectorized;
                prof.addCounter("vectorize", "loops_vectorized", vectorized);
                verifyIfChanged(*fn, "vectorize", vectorized > 0);
            }
        }

        if (res.traits.isWM() && options.optimize) {
            int moved = 0;
            measure("branch-anticipate", [&] {
                moved = opt::runBranchAnticipate(*fn, res.traits);
            });
            verifyIfChanged(*fn, "branch-anticipate", moved > 0);
        }

        if (!res.traits.isWM()) {
            int rewritten = 0;
            measure("strength-reduce", [&] {
                rewritten = opt::runStrengthReduce(*fn, res.traits);
            });
            verifyIfChanged(*fn, "strength-reduce", rewritten > 0);
            if (options.optimize && rewritten > 0)
                cleanupAfter("strength-cleanup");
        }

        opt::RegAllocResult ra;
        measure("regalloc",
                [&] { ra = opt::runRegAlloc(*fn, res.traits); });
        prof.addCounter("regalloc", "regalloc_attempts", ra.attempts);
        if (!ra.allocated) {
            res.remarks.add(
                capHitRemark("regalloc", *fn, opt::kRegAllocAttemptCap));
            diag.error({}, strFormat("register allocation of '%s' did not "
                                     "converge in %d attempts",
                                     fn->name().c_str(),
                                     opt::kRegAllocAttemptCap));
            res.diagnostics = diag.str();
            res.passProfiles = prof.profiles();
            return res;
        }
        verifyAfter(*fn, "regalloc", verify::Stage::PostRegalloc);
    }

    if (res.traits.isWM()) {
        rtl::WorkCounts before = totalWork(*res.program);
        wm::LoweringReport lr;
        prof.measure(
            "lower-fifo", [&] { return countInsts(*res.program); },
            [&] { lr = wm::lowerProgram(*res.program, res.traits); });
        prof.addCounter("lower-fifo", "loads_lowered", lr.loadsLowered);
        prof.addCounter("lower-fifo", "stores_lowered", lr.storesLowered);
        prof.addCounter("lower-fifo", "dequeues_folded", lr.dequeuesFolded);
        prof.addCounter("lower-fifo", "enqueues_folded", lr.enqueuesFolded);
        addWorkCounters(prof, "lower-fifo", before,
                        totalWork(*res.program));
        checkpoint();
    }

    // End-of-pipeline checkpoint: the only one in Final mode, and the
    // one place data-FIFO depths are tracked (PostLower) in Each mode.
    if (options.verify != VerifyMode::Off) {
        verify::VerifyOptions vo;
        vo.stage = res.traits.isWM() ? verify::Stage::PostLower
                                     : verify::Stage::PostRegalloc;
        vo.pass = options.verify == VerifyMode::Each ? "lower-fifo"
                                                     : "final";
        recordVerify(
            verify::verifyProgram(*res.program, res.traits, vo));
    }

    // Whole-program FIFO deadlock/depth analysis over the final
    // code. Compiler-bug findings (starved pop, unprovable
    // discipline) flow into the verifier stream; a depth-exceeded
    // finding is a configuration error left to the caller, so it
    // stays out of verifyReports (wmc reports it against
    // --fifo-depth and exits 1, not 70).
    if (options.inferFifoDepth && res.traits.isWM()) {
        prof.measure(
            "fifo-depth", [&] { return countInsts(*res.program); },
            [&] {
                res.fifoRequirements = verify::analyzeFifoRequirements(
                    *res.program, res.traits,
                    options.configuredFifoDepth);
            });
        prof.addCounter("fifo-depth", "queues_analyzed",
                        static_cast<int64_t>(
                            res.fifoRequirements.queues.size()));
        prof.addCounter("fifo-depth", "min_depth",
                        res.fifoRequirements.minDepth);
        verify::VerifyReport bugs;
        bugs.pass = res.fifoRequirements.findings.pass;
        bugs.stage = res.fifoRequirements.findings.stage;
        for (const verify::Violation &v :
             res.fifoRequirements.findings.violations)
            if (v.reason != "fifo-depth-exceeded")
                bugs.violations.push_back(v);
        if (!bugs.ok())
            recordVerify(std::move(bugs));
        checkpoint();
    }

    tagLoops(*res.program, res.remarks);
    res.program->layout();
    // Callers keep the result while they run it; give back the slack
    // that the passes' erases left in the instruction arrays (about
    // two thirds of their capacity on a large function).
    for (auto &fn : res.program->functions())
        for (auto &b : fn->blocks())
            b->insts.shrink_to_fit();
    res.ok = true;
    res.diagnostics = diag.str();
    res.passProfiles = prof.profiles();
    return res;
}

CompileResult
compileSource(const std::string &source, const CompileOptions &options)
{
    CompileRequest req;
    req.source = source;
    req.options = options;
    return compile(req);
}

} // namespace wmstream::driver
