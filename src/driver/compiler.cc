#include "driver/compiler.h"

#include <chrono>
#include <thread>

#include "cfg/dominators.h"
#include "cfg/loops.h"
#include "expand/expander.h"
#include "frontend/parser.h"
#include "opt/passes.h"
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

/** First stamped source position in the loop (header first). */
SourcePos
loopPos(const cfg::Loop &loop)
{
    for (const rtl::Inst &inst : loop.header->insts)
        if (inst.pos.valid())
            return inst.pos;
    for (rtl::Block *b : loop.blocks)
        for (const rtl::Inst &inst : b->insts)
            if (inst.pos.valid())
                return inst.pos;
    return {};
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
    return rc.loopId(fn.name(), loop.header->label(), loopPos(loop));
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
                               &res.remarks);
        });
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

    if (options.verify == VerifyMode::Each) {
        verify::VerifyOptions vo;
        vo.stage = verify::Stage::PostExpand;
        vo.pass = "expand";
        recordVerify(verify::verifyProgram(*res.program, res.traits,
                                           vo));
    }

    for (auto &fn : res.program->functions()) {
        auto insts = [&] { return countInsts(*fn); };

        if (options.optimize) {
            prof.measure("cleanup", insts, [&] {
                opt::runCleanupPipeline(*fn, res.traits,
                                        res.program.get());
            });
            verifyAfter(*fn, "cleanup", kPostOpt);
        } else {
            prof.measure("legalize", insts, [&] {
                opt::runLegalize(*fn, res.traits);
            });
            verifyAfter(*fn, "legalize", kPostOpt);
        }

        if (options.recurrence) {
            prof.measure("recurrence", insts, [&] {
                res.recurrenceReports.push_back(
                    recurrence::runRecurrenceOpt(
                        *fn, res.traits, options.maxRecurrenceDegree,
                        options.injectRecurrenceDistanceBug,
                        &res.remarks));
            });
            const auto &rr = res.recurrenceReports.back();
            prof.addCounter("recurrence", "loops_examined",
                            rr.loopsExamined);
            prof.addCounter("recurrence", "recurrences_optimized",
                            rr.recurrencesOptimized);
            prof.addCounter("recurrence", "loads_deleted",
                            rr.loadsDeleted);
            verifyAfter(*fn, "recurrence", kPostOpt);
            // The chain shape only exists right after the pass: copy
            // propagation legitimately dissolves it, so legality is
            // checked here regardless of mode (the check is cheap and
            // the shape is unrecoverable later).
            if (options.verify != VerifyMode::Off)
                recordVerify(verify::verifyRecurrenceChains(
                    *fn, res.traits, rr.chains, "recurrence"));
            // The paper: "after performing the recurrence
            // transformations, the optimizer invokes other phases" —
            // copy propagation removes the chain shift when possible.
            if (options.optimize) {
                prof.measure("recurrence-cleanup", insts, [&] {
                    opt::runCopyPropagate(*fn, res.traits);
                    opt::runDeadCodeElim(*fn, res.traits);
                });
                verifyAfter(*fn, "recurrence-cleanup", kPostOpt);
            }
        }

        if (options.streaming && res.traits.hasStreams) {
            prof.measure("streaming", insts, [&] {
                res.streamingReports.push_back(streaming::runStreaming(
                    *fn, res.traits, options.minStreamTripCount,
                    &res.remarks, options.injectStreamCountBug,
                    options.injectVerifierBug));
            });
            const auto &sr = res.streamingReports.back();
            prof.addCounter("streaming", "loops_examined",
                            sr.loopsExamined);
            prof.addCounter("streaming", "loops_streamed",
                            sr.loopsStreamed);
            prof.addCounter("streaming", "streams_in", sr.streamsIn);
            prof.addCounter("streaming", "streams_out", sr.streamsOut);
            verifyAfter(*fn, "streaming", kPostOpt);
            if (options.optimize) {
                prof.measure("streaming-cleanup", insts, [&] {
                    opt::runCombine(*fn, res.traits);
                    opt::runCopyPropagate(*fn, res.traits);
                    // Branch optimization before DCE: deleting a
                    // fallthrough CondJump leaves its compare — a
                    // CC-FIFO enqueue nothing will ever dequeue — and
                    // this is the last DCE that can collect it.
                    opt::runBranchOpt(*fn);
                    opt::runDeadCodeElim(*fn, res.traits);
                });
                verifyAfter(*fn, "streaming-cleanup", kPostOpt);
            }
            // Vectorization recognizes the post-cleanup single-
            // instruction loop bodies.
            if (options.vectorize) {
                prof.measure("vectorize", insts, [&] {
                    res.vectorizeReports.push_back(
                        streaming::runVectorize(*fn, res.traits));
                });
                prof.addCounter(
                    "vectorize", "loops_vectorized",
                    res.vectorizeReports.back().loopsVectorized);
                verifyAfter(*fn, "vectorize", kPostOpt);
            }
        }

        if (res.traits.isWM() && options.optimize) {
            prof.measure("branch-anticipate", insts, [&] {
                opt::runBranchAnticipate(*fn, res.traits);
            });
            verifyAfter(*fn, "branch-anticipate", kPostOpt);
        }

        if (options.strengthReduce && !res.traits.isWM()) {
            prof.measure("strength-reduce", insts, [&] {
                opt::runStrengthReduce(*fn, res.traits);
            });
            verifyAfter(*fn, "strength-reduce", kPostOpt);
            if (options.optimize) {
                prof.measure("strength-cleanup", insts, [&] {
                    opt::runCombine(*fn, res.traits);
                    opt::runCopyPropagate(*fn, res.traits);
                    opt::runDeadCodeElim(*fn, res.traits);
                });
                verifyAfter(*fn, "strength-cleanup", kPostOpt);
            }
        }

        prof.measure("regalloc", insts,
                     [&] { opt::runRegAlloc(*fn, res.traits); });
        verifyAfter(*fn, "regalloc", verify::Stage::PostRegalloc);
    }

    if (res.traits.isWM() && options.lowerFifo) {
        prof.measure(
            "lower-fifo", [&] { return countInsts(*res.program); },
            [&] { wm::lowerProgram(*res.program, res.traits); });
        checkpoint();
    }

    // End-of-pipeline checkpoint: the only one in Final mode, and the
    // one place data-FIFO depths are tracked (PostLower) in Each mode.
    if (options.verify != VerifyMode::Off) {
        verify::VerifyOptions vo;
        vo.stage = res.traits.isWM() && options.lowerFifo
                       ? verify::Stage::PostLower
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
    if (options.inferFifoDepth && res.traits.isWM() &&
            options.lowerFifo) {
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
