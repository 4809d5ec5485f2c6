#include "fuzz/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>

#include "frontend/parser.h"
#include "fuzz/minimize.h"
#include "interp/interp.h"
#include "support/str.h"
#include "support/thread_pool.h"
#include "timing/scalar_sim.h"

namespace wmstream::fuzz {

namespace {

// Generated programs are tiny (<= 48-element arrays, <= 3-statement
// bodies), so a well-compiled program finishes in well under a
// million cycles at any simulated latency. A genuine wedge is caught
// by the simulator's no-progress watchdog within its window; the
// cycle budget only bounds true livelocks (still making progress),
// which then classify as livelock instead of burning minutes.
constexpr uint64_t kSimMaxCycles = 2'000'000ull;
constexpr uint64_t kScalarMaxInsts = 2'000'000ull;

struct OracleResult
{
    bool ok = false;
    int64_t value = 0;
    std::string error;
};

/** Parse + interpret: the ground truth every target must match. */
OracleResult
runOracle(const std::string &source)
{
    OracleResult res;
    DiagEngine diag;
    auto unit = frontend::parseAndCheck(source, diag);
    if (!unit) {
        res.error = diag.str();
        return res;
    }
    interp::Interpreter in(*unit);
    auto r = in.run();
    if (!r.ok) {
        res.error = r.error;
        return res;
    }
    res.ok = true;
    res.value = r.returnValue;
    return res;
}

uint64_t
fnv1a64(const std::string &s)
{
    uint64_t h = 0xCBF29CE484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001B3ull;
    }
    return h;
}

uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** Compile+run @p source under @p cfg and diff against @p expect. */
CheckOutcome
checkAgainstOracle(const std::string &source, int64_t expect,
                   const FuzzConfig &cfg)
{
    CheckOutcome out;
    out.expected = expect;
    // Panic containment: a compiler panic (InternalError) during a
    // fuzz check is itself a finding, deduplicated by its
    // panic@file:line signature — it must not kill the campaign's
    // worker thread (exceptions escaping a pool job terminate the
    // process per the ThreadPool contract).
    driver::CompileResult cr;
    try {
        cr = driver::compileSource(source, cfg.opts);
    } catch (const InternalError &e) {
        out.diverged = true;
        out.kind = DivergenceKind::CompileError;
        out.detail = e.what();
        out.faultSignature = e.signature();
        return out;
    }
    if (!cr.ok) {
        out.diverged = true;
        out.kind = DivergenceKind::CompileError;
        out.detail = cr.diagnostics;
        return out;
    }
    if (!cr.verifyClean()) {
        // Third oracle: the IR verifier flagged the compiled program.
        // A compile-time verdict — no simulation needed (and none
        // wanted: the code is known-broken). Dedup by the sorted
        // unique violation signatures (reason@invariant), which are
        // program-independent, so one compiler bug folds into one
        // finding across hundreds of generated programs.
        out.diverged = true;
        out.kind = DivergenceKind::VerifyError;
        out.detail = cr.verifyText();
        out.faultSignature = verify::joinedSignature(cr.verifyReports);
        return out;
    }
    auto capHits = cr.remarks.byReason("fixpoint-cap-hit");
    if (!capHits.empty()) {
        // A compile-time verdict like the verifier's: the code may
        // still be right, but a cleanup did not reach its fixpoint.
        // Dedup by the cleanup that stopped (its after_pass label).
        const obs::Remark &r = *capHits.front();
        out.diverged = true;
        out.kind = DivergenceKind::CleanupCap;
        out.detail = r.str();
        for (const obs::RemarkArg &a : r.args)
            if (a.name == "after_pass")
                out.faultSignature = "fixpoint-cap-hit@" + a.value;
        return out;
    }
    if (cfg.opts.target == rtl::MachineKind::WM) {
        // Static half of the agreement oracle: the whole-program FIFO
        // analysis renders its verdict before the simulator runs. It
        // is self-contained (reruns discipline checks itself), so it
        // works even in configurations that disable --verify, e.g.
        // the --inject-deadlock-bug self-test.
        verify::FifoRequirements fifoReq =
            verify::analyzeFifoRequirements(*cr.program, cr.traits,
                                            cfg.simCfg.dataFifoDepth);
        out.staticAnalyzed = fifoReq.analyzed;
        out.staticDeadlockFree = fifoReq.deadlockFree;
        auto res = wmsim::simulate(*cr.program, cfg.simCfg);
        if (!res.ok) {
            out.diverged = true;
            if (res.fault == wmsim::SimFault::Deadlock ||
                res.fault == wmsim::SimFault::Livelock) {
                out.kind = DivergenceKind::Deadlock;
                out.faultSignature = res.faultReport.signature();
                // Statically proven deadlock-free yet the watchdog
                // found a true deadlock (livelocks make no FIFO
                // claim): the analysis was unsound or the simulator
                // is wrong — escalate.
                if (fifoReq.deadlockFree &&
                    res.fault == wmsim::SimFault::Deadlock) {
                    out.kind = DivergenceKind::StaticFifoBreak;
                    out.detail = strFormat(
                        "static verdict was deadlock-free but the "
                        "watchdog fired: %s",
                        res.error.c_str());
                    return out;
                }
            } else {
                out.kind = DivergenceKind::RunError;
            }
            out.detail = res.error;
            return out;
        }
        out.actual = res.returnValue;
        // Chaos oracle: the same program under perturbed timing must
        // return the same architectural result.
        for (int k = 1; k <= cfg.chaosSeeds; ++k) {
            wmsim::SimConfig cc = cfg.simCfg;
            cc.chaosSeed =
                mix64(cfg.chaosBaseSeed + static_cast<uint64_t>(k));
            if (cc.chaosSeed == 0)
                cc.chaosSeed = 1;
            auto cres = wmsim::simulate(*cr.program, cc);
            if (cres.ok && cres.returnValue == res.returnValue)
                continue;
            out.diverged = true;
            out.kind = DivergenceKind::ChaosBreak;
            if (!cres.ok) {
                out.detail = strFormat("chaos seed %llu: %s",
                                       static_cast<unsigned long long>(
                                           cc.chaosSeed),
                                       cres.error.c_str());
                if (cres.fault == wmsim::SimFault::Deadlock ||
                    cres.fault == wmsim::SimFault::Livelock)
                    out.faultSignature = cres.faultReport.signature();
            } else {
                out.detail = strFormat(
                    "chaos seed %llu: returned %lld, deterministic "
                    "run returned %lld",
                    static_cast<unsigned long long>(cc.chaosSeed),
                    static_cast<long long>(cres.returnValue),
                    static_cast<long long>(res.returnValue));
                out.actual = cres.returnValue;
            }
            return out;
        }
        // Static depth claim: a program proven deadlock-free runs to
        // the same result with every data FIFO cut to the inferred
        // minimum depth. (At the configured depth the run above
        // already checked it.)
        int depth = std::max(1, fifoReq.minDepth);
        if (fifoReq.deadlockFree && depth != cfg.simCfg.dataFifoDepth) {
            wmsim::SimConfig dc = cfg.simCfg;
            dc.dataFifoDepth = depth;
            auto dres = wmsim::simulate(*cr.program, dc);
            out.depthResimulated = true;
            if (!dres.ok || dres.returnValue != res.returnValue) {
                out.diverged = true;
                out.kind = DivergenceKind::StaticFifoBreak;
                if (!dres.ok) {
                    out.detail = strFormat(
                        "static minimum FIFO depth %d: %s", depth,
                        dres.error.c_str());
                    if (dres.fault == wmsim::SimFault::Deadlock ||
                        dres.fault == wmsim::SimFault::Livelock)
                        out.faultSignature = dres.faultReport.signature();
                } else {
                    out.detail = strFormat(
                        "static minimum FIFO depth %d: returned %lld, "
                        "configured depth returned %lld",
                        depth, static_cast<long long>(dres.returnValue),
                        static_cast<long long>(res.returnValue));
                    out.actual = dres.returnValue;
                }
                return out;
            }
        }
    } else {
        auto model = timing::m88100Model();
        auto res = timing::runScalar(*cr.program, model,
                                     kScalarMaxInsts);
        if (!res.ok) {
            out.diverged = true;
            out.kind = DivergenceKind::RunError;
            out.detail = res.error;
            return out;
        }
        out.actual = res.returnValue;
    }
    if (out.actual != expect) {
        out.diverged = true;
        out.kind = DivergenceKind::Mismatch;
    }
    return out;
}

std::string
wmcFlags(const FuzzConfig &cfg)
{
    std::string f;
    if (cfg.opts.target != rtl::MachineKind::WM)
        f += " --target=68020";
    if (!cfg.opts.optimize)
        f += " --no-opt";
    if (!cfg.opts.recurrence)
        f += " --no-recurrence";
    if (!cfg.opts.streaming)
        f += " --no-streaming";
    if (cfg.opts.vectorize)
        f += " --vectorize";
    if (cfg.opts.minStreamTripCount != 4)
        f += strFormat(" --min-trip=%d", cfg.opts.minStreamTripCount);
    if (cfg.opts.injectStreamCountBug)
        f += " --inject-deadlock-bug";
    if (cfg.opts.injectVerifierBug)
        f += " --inject-verifier-bug";
    if (cfg.opts.verify == driver::VerifyMode::Each)
        f += " --verify=each";
    else if (cfg.opts.verify == driver::VerifyMode::Final)
        f += " --verify=final";
    if (cfg.opts.target == rtl::MachineKind::WM)
        f += strFormat(" --mem-latency=%d --fifo-depth=%d",
                       cfg.simCfg.memLatency, cfg.simCfg.dataFifoDepth);
    return f;
}

} // anonymous namespace

const char *
divergenceKindName(DivergenceKind k)
{
    switch (k) {
      case DivergenceKind::Mismatch: return "mismatch";
      case DivergenceKind::CompileError: return "compile_error";
      case DivergenceKind::RunError: return "run_error";
      case DivergenceKind::OracleError: return "oracle_error";
      case DivergenceKind::Deadlock: return "deadlock";
      case DivergenceKind::ChaosBreak: return "chaos_break";
      case DivergenceKind::VerifyError: return "verify_error";
      case DivergenceKind::StaticFifoBreak: return "static_fifo_break";
      case DivergenceKind::CleanupCap: return "cleanup_cap";
    }
    return "unknown";
}

std::vector<FuzzConfig>
configMatrix(uint64_t programIndex, bool injectRecurrenceBug,
             bool injectStreamCountBug, int chaosSeeds,
             bool injectVerifierBug)
{
    std::vector<FuzzConfig> configs;

    // The verifier oracle runs in every configuration, except under
    // the fault-injection self-tests: each planted miscompile must
    // reach the oracle it exists to prove (the watchdog for the
    // deadlock bug, the differential diff for the recurrence bug),
    // and the static linter would now reject both at compile time
    // first — the stream under-count as stream-count-mismatch, the
    // illegal same-cell rewrite as use-before-def.
    driver::VerifyMode verify =
        injectStreamCountBug || injectRecurrenceBug
            ? driver::VerifyMode::Off
            : driver::VerifyMode::Each;

    wmsim::SimConfig simCfg;
    simCfg.maxCycles = kSimMaxCycles;
    // Vary the machine a little, keyed by the program index, exactly
    // like the original loopfuzz test varied it by seed.
    simCfg.memLatency = 1 + static_cast<int>(programIndex % 9);
    simCfg.dataFifoDepth = 2 + static_cast<int>(programIndex % 7);

    auto wm = [&](bool rec, bool stream) {
        FuzzConfig c;
        c.opts.target = rtl::MachineKind::WM;
        c.opts.recurrence = rec;
        c.opts.streaming = stream;
        c.opts.vectorize = stream && (programIndex & 1);
        // Stress the streaming threshold too.
        c.opts.minStreamTripCount = programIndex % 3 == 0 ? 0 : 4;
        c.opts.injectRecurrenceDistanceBug = injectRecurrenceBug;
        c.opts.injectStreamCountBug = injectStreamCountBug;
        c.opts.injectVerifierBug = injectVerifierBug;
        c.opts.verify = verify;
        c.simCfg = simCfg;
        c.chaosSeeds = chaosSeeds;
        c.chaosBaseSeed = mix64(programIndex ^ 0x5DEECE66Dull);
        c.key = "wm/";
        c.key += rec ? "rec" : "norec";
        c.key += stream ? "+stream" : "";
        c.key += c.opts.vectorize ? "+vec" : "";
        configs.push_back(std::move(c));
    };
    for (bool rec : {false, true})
        for (bool stream : {false, true})
            wm(rec, stream);

    {
        // Completely unoptimized WM compilation: the baseline no
        // transform should ever be able to break.
        FuzzConfig c;
        c.opts.target = rtl::MachineKind::WM;
        c.opts.optimize = false;
        c.opts.recurrence = false;
        c.opts.streaming = false;
        c.opts.injectRecurrenceDistanceBug = injectRecurrenceBug;
        c.opts.verify = verify;
        c.simCfg = simCfg;
        c.chaosSeeds = chaosSeeds;
        c.chaosBaseSeed = mix64(programIndex ^ 0x5DEECE66Dull);
        c.key = "wm/noopt";
        configs.push_back(std::move(c));
    }

    for (bool rec : {false, true}) {
        FuzzConfig c;
        c.opts.target = rtl::MachineKind::Scalar;
        c.opts.recurrence = rec;
        c.opts.streaming = false;
        c.opts.injectRecurrenceDistanceBug = injectRecurrenceBug;
        c.opts.verify = verify;
        c.key = rec ? "scalar/rec" : "scalar/norec";
        configs.push_back(std::move(c));
    }
    return configs;
}

CheckOutcome
checkSpec(const ProgramSpec &spec, const FuzzConfig &cfg)
{
    std::string source = renderProgram(spec);
    auto oracle = runOracle(source);
    if (!oracle.ok) {
        CheckOutcome out;
        out.diverged = true;
        out.kind = DivergenceKind::OracleError;
        out.detail = oracle.error;
        return out;
    }
    return checkAgainstOracle(source, oracle.value, cfg);
}

std::string
divergenceSignature(const ProgramSpec &spec, const FuzzConfig &cfg,
                    const CheckOutcome &outcome)
{
    // Deadlocks and livelocks dedup by the wait-for-graph shape the
    // watchdog reported, not by program structure: one FIFO-imbalance
    // bug wedges hundreds of generated programs the same way.
    if (!outcome.faultSignature.empty())
        return cfg.key + '/' + divergenceKindName(outcome.kind) + ':' +
               outcome.faultSignature;
    // Structural features the loop transforms key on. Offsets are
    // expressed as iteration distances (normalized by direction) so
    // an up-loop and a down-loop instance of the same bug collide.
    std::set<std::string> tags;
    for (const StmtSpec &s : spec.stmts) {
        auto srcTag = [&](int src, int off) {
            if (src != s.dst)
                return;
            int d = s.dstOff - off;
            if (d == 0) {
                tags.insert("cell0");
            } else {
                int dist = spec.countUp ? d : -d;
                tags.insert(strFormat("carry%+d", dist));
            }
        };
        srcTag(s.src1, s.off1);
        srcTag(s.src2, s.off2);
        if (s.conditional)
            tags.insert("cond");
        if (s.accumulate)
            tags.insert("acc");
    }
    std::string sig = cfg.key;
    sig += '/';
    sig += divergenceKindName(outcome.kind);
    for (const std::string &t : tags) {
        sig += ':';
        sig += t;
    }
    return sig;
}

CampaignResult
runCampaign(const CampaignOptions &opts)
{
    CampaignResult res;
    auto t0 = std::chrono::steady_clock::now();

    support::Rng root(opts.seed);
    support::ThreadPool pool(opts.jobs);

    struct RawDivergence
    {
        uint64_t programIndex;
        ProgramSpec spec;
        FuzzConfig config;
        CheckOutcome outcome;
        std::string signature;
    };
    std::mutex mu;
    std::vector<RawDivergence> raw;
    std::atomic<uint64_t> digest{0};
    std::atomic<int64_t> checks{0};
    std::atomic<int64_t> programsDone{0};
    std::atomic<int> divergenceCount{0};
    std::atomic<int64_t> staticFree{0};
    std::atomic<int64_t> staticFlagged{0};
    std::atomic<int64_t> depthResims{0};

    support::parallelFor(
        pool, opts.maxPrograms, [&](int64_t p) {
            auto idx = static_cast<uint64_t>(p);
            support::Rng rng = root.split(idx);
            ProgramSpec spec = generateSpec(rng);
            std::string source = renderProgram(spec);
            // XOR-accumulated so the digest is independent of the
            // order workers finish in.
            digest.fetch_xor(mix64(fnv1a64(source) ^ (idx * 2 + 1)),
                             std::memory_order_relaxed);

            auto oracle = runOracle(source);
            for (const FuzzConfig &cfg :
                 configMatrix(idx, opts.injectRecurrenceBug,
                              opts.injectStreamCountBug,
                              opts.chaosSeeds,
                              opts.injectVerifierBug)) {
                CheckOutcome out;
                if (!oracle.ok) {
                    out.diverged = true;
                    out.kind = DivergenceKind::OracleError;
                    out.detail = oracle.error;
                } else {
                    out = checkAgainstOracle(source, oracle.value, cfg);
                }
                checks.fetch_add(1, std::memory_order_relaxed);
                if (out.staticAnalyzed) {
                    auto &tally =
                        out.staticDeadlockFree ? staticFree
                                               : staticFlagged;
                    tally.fetch_add(1, std::memory_order_relaxed);
                }
                if (out.depthResimulated)
                    depthResims.fetch_add(1, std::memory_order_relaxed);
                if (out.diverged) {
                    RawDivergence d{idx, spec, cfg, out,
                                    divergenceSignature(spec, cfg, out)};
                    divergenceCount.fetch_add(1);
                    std::lock_guard<std::mutex> lock(mu);
                    raw.push_back(std::move(d));
                }
                if (!oracle.ok)
                    break; // one oracle_error per program is enough
            }
            int64_t done = programsDone.fetch_add(1) + 1;
            if (opts.progress && done % 100 == 0)
                std::fprintf(stderr,
                             "wmfuzz: %lld/%d programs, %d divergences\n",
                             static_cast<long long>(done),
                             opts.maxPrograms, divergenceCount.load());
        });

    res.programsRun = opts.maxPrograms;
    res.checksRun = checks.load();
    res.streamDigest = digest.load();
    res.rawDivergences = static_cast<int>(raw.size());
    res.staticDeadlockFree = staticFree.load();
    res.staticFlagged = staticFlagged.load();
    res.staticDepthResims = depthResims.load();

    // Deduplicate by signature; the exemplar is the lowest program
    // index so the report is deterministic for any worker count.
    std::map<std::string, Divergence> unique;
    for (RawDivergence &d : raw) {
        auto it = unique.find(d.signature);
        if (it == unique.end()) {
            Divergence u;
            u.programIndex = d.programIndex;
            u.signature = d.signature;
            u.kind = d.outcome.kind;
            u.expected = d.outcome.expected;
            u.actual = d.outcome.actual;
            u.detail = d.outcome.detail;
            u.spec = d.spec;
            u.config = d.config;
            unique.emplace(d.signature, std::move(u));
        } else {
            Divergence &u = it->second;
            ++u.duplicates;
            if (d.programIndex < u.programIndex) {
                int dup = u.duplicates;
                u = Divergence{};
                u.programIndex = d.programIndex;
                u.signature = d.signature;
                u.kind = d.outcome.kind;
                u.expected = d.outcome.expected;
                u.actual = d.outcome.actual;
                u.detail = d.outcome.detail;
                u.spec = d.spec;
                u.config = d.config;
                u.duplicates = dup;
            }
        }
    }
    for (auto &kv : unique)
        res.divergences.push_back(std::move(kv.second));

    // Minimize each unique divergence (in parallel; each minimization
    // is an independent sequence of compile+run probes).
    if (opts.minimize && !res.divergences.empty()) {
        support::parallelFor(
            pool, static_cast<int64_t>(res.divergences.size()),
            [&](int64_t i) {
                Divergence &d =
                    res.divergences[static_cast<size_t>(i)];
                auto pred = [&d](const ProgramSpec &cand) {
                    auto out = checkSpec(cand, d.config);
                    return out.diverged && out.kind == d.kind;
                };
                // The raw divergence re-checks deterministically, so
                // pred(spec) holds; minimize from there.
                auto m = minimizeSpec(d.spec, pred);
                d.minimizedSpec = m.spec;
                d.minimizeAttempts = m.attempts;
                // Refresh expected/actual for the minimized program.
                auto out = checkSpec(d.minimizedSpec, d.config);
                d.expected = out.expected;
                d.actual = out.actual;
                d.detail = out.detail;
            });
    } else {
        for (Divergence &d : res.divergences)
            d.minimizedSpec = d.spec;
    }

    // Emit reproducer files.
    if (!opts.reproDir.empty() && !res.divergences.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opts.reproDir, ec);
        int n = 0;
        for (Divergence &d : res.divergences) {
            d.reproPath = strFormat("%s/repro-%03d-%s.c",
                                    opts.reproDir.c_str(), n++,
                                    divergenceKindName(d.kind));
            std::ofstream f(d.reproPath);
            f << renderReproducer(d, opts);
        }
    }

    res.elapsedSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    return res;
}

std::string
renderReproducer(const Divergence &d, const CampaignOptions &opts)
{
    std::string out = "/*\n";
    out += strFormat(" * wmfuzz reproducer: %s under %s\n",
                     divergenceKindName(d.kind), d.config.key.c_str());
    out += strFormat(" * signature: %s\n", d.signature.c_str());
    if (d.kind == DivergenceKind::Mismatch)
        out += strFormat(" * oracle (interp) says %lld, target says "
                         "%lld\n",
                         static_cast<long long>(d.expected),
                         static_cast<long long>(d.actual));
    else if (!d.detail.empty())
        out += strFormat(" * error: %s\n",
                         trimString(d.detail).c_str());
    std::string extraFlags;
    if (opts.injectRecurrenceBug)
        extraFlags += " --inject-recurrence-bug";
    if (opts.injectStreamCountBug)
        extraFlags += " --inject-deadlock-bug";
    if (opts.injectVerifierBug)
        extraFlags += " --inject-verifier-bug";
    if (opts.chaosSeeds > 0)
        extraFlags += strFormat(" --chaos-seeds=%d", opts.chaosSeeds);
    out += strFormat(" * found by: wmfuzz --seed=%llu "
                     "--max-programs=%d%s (program #%llu, %d "
                     "duplicates folded)\n",
                     static_cast<unsigned long long>(opts.seed),
                     opts.maxPrograms, extraFlags.c_str(),
                     static_cast<unsigned long long>(d.programIndex),
                     d.duplicates);
    out += strFormat(" * re-check: wmc --run%s <this file>\n",
                     wmcFlags(d.config).c_str());
    out += " */\n";
    out += renderProgram(d.minimizedSpec);
    return out;
}

void
writeCampaignJson(obs::JsonWriter &w, const CampaignOptions &opts,
                  const CampaignResult &res)
{
    w.beginObject();
    w.field("schema_version", int64_t{1});
    w.key("campaign");
    w.beginObject();
    w.field("seed", static_cast<uint64_t>(opts.seed));
    w.field("max_programs", opts.maxPrograms);
    w.field("jobs", opts.jobs);
    w.field("inject_recurrence_bug", opts.injectRecurrenceBug);
    w.field("inject_deadlock_bug", opts.injectStreamCountBug);
    w.field("inject_verifier_bug", opts.injectVerifierBug);
    w.field("chaos_seeds", static_cast<int64_t>(opts.chaosSeeds));
    w.field("minimize", opts.minimize);
    w.endObject();
    w.field("programs_run", res.programsRun);
    w.field("checks_run", res.checksRun);
    w.field("elapsed_seconds", res.elapsedSeconds);
    w.field("programs_per_second",
            res.elapsedSeconds > 0
                ? res.programsRun / res.elapsedSeconds
                : 0.0);
    w.field("stream_digest",
            strFormat("%016llx", static_cast<unsigned long long>(
                                     res.streamDigest)));
    w.field("static_deadlock_free", res.staticDeadlockFree);
    w.field("static_flagged", res.staticFlagged);
    w.field("static_depth_resims", res.staticDepthResims);
    w.field("raw_divergences", res.rawDivergences);
    w.field("unique_divergences",
            static_cast<int64_t>(res.divergences.size()));
    w.key("divergences");
    w.beginArray();
    for (const Divergence &d : res.divergences) {
        w.beginObject();
        w.field("signature", d.signature);
        w.field("config", d.config.key);
        w.field("kind", divergenceKindName(d.kind));
        w.field("program_index", static_cast<uint64_t>(d.programIndex));
        w.field("duplicates", d.duplicates);
        if (d.kind == DivergenceKind::Mismatch) {
            w.field("expected", d.expected);
            w.field("actual", d.actual);
        }
        if (!d.detail.empty())
            w.field("detail", d.detail);
        w.field("original_lines",
                sourceLineCount(renderProgram(d.spec)));
        w.field("minimized_lines",
                sourceLineCount(renderProgram(d.minimizedSpec)));
        w.field("minimize_attempts", d.minimizeAttempts);
        if (!d.reproPath.empty())
            w.field("repro_path", d.reproPath);
        w.field("minimized_source", renderProgram(d.minimizedSpec));
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace wmstream::fuzz
