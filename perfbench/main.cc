/**
 * @file
 * The repository benchmark: three closed-loop workloads over the
 * compile pipeline and the WM cycle simulator, driven through their
 * public functions from one thread.
 *
 *   fuzz    seeded generated loop programs, each run in the
 *           interpreter and then checked under the seven fuzz
 *           configurations (the wmfuzz path; fixed costs per compile
 *           and per simulation dominate);
 *   table2  the nine Table II programs compiled in set-up with
 *           streaming off and on, then simulated in the timed loop
 *           (the simulator's run loop dominates);
 *   bigtu   a compile-only sweep over one function with k = 8..48
 *           streamable loops (the quadratic passes dominate).
 *
 * A workload is set up five times (the median is setup_s), with
 * rounds — one pass over its fixed, seed-derived inputs each — filling
 * the time budget between the set-ups. Every set-up and every round
 * must reproduce the first one's deterministic counters exactly.
 *
 * Host timings are scaled to a nominal host speed: a fixed reference
 * kernel runs between items, and each item's time is scaled by how far
 * the reference time measured around it is from nominal (set-up time
 * likewise). A shared host drifts by up to 1.5x within seconds, which
 * no length of run averages out.
 *
 * Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--spans-out FILE]
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed, metrics and input_digest. With
 * --trace 0 the metrics are the end-to-end ones; with --trace 1 half
 * the budget runs untraced, the same number of rounds then runs with
 * a span around every call into a layer, and the metrics are the
 * per-layer ones (per round). A human-readable layer table goes to
 * standard error.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "driver/compiler.h"
#include "frontend/parser.h"
#include "interp/interp.h"
#include "perfbench/heap.h"
#include "perfbench/gen.h"
#include "perfbench/trace.h"
#include "programs/programs.h"
#include "support/diag.h"
#include "support/rng.h"
#include "support/str.h"
#include "timing/scalar_sim.h"
#include "verify/verify.h"
#include "wmsim/sim.h"

using namespace wmstream;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 5;
constexpr uint64_t kScalarMaxInsts = 2'000'000ull;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

volatile uint64_t gReferenceSink = 0;

/**
 * Time of a fixed piece of work shaped like the layers' own code:
 * sorting, hashing and branches on loaded data, over a working set that
 * fits in L2. A shared host runs the same code up to 1.5x faster or
 * slower from one second to the next, in CPU time as much as in wall
 * time, so it is the core's speed (clock, a busy sibling thread) that
 * moves, not time spent descheduled. Timing this next to every item
 * measures the speed the item ran at.
 */
double
referenceRunMs()
{
    static const std::vector<uint32_t> keys = [] {
        std::vector<uint32_t> k(4096);
        support::Rng rng(0x5eed);
        for (uint32_t &x : k)
            x = static_cast<uint32_t>(rng.next());
        return k;
    }();
    Clock::time_point t0 = Clock::now();
    std::vector<uint32_t> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    std::unordered_map<uint32_t, uint32_t> map;
    for (size_t i = 0; i < keys.size(); i += 2)
        map[keys[i]] = sorted[i];
    uint64_t sum = 0;
    for (uint32_t k : keys)
        if (auto it = map.find(k); it != map.end())
            sum += it->second;
    gReferenceSink = sum;
    return msSince(t0);
}

/**
 * referenceMs() on a quiet 4-core KVM host: host timings are reported
 * as if every item had run at that speed.
 */
constexpr double kNominalReferenceMs = 0.4;

/**
 * How much more the layers' code slows than the reference kernel when
 * the host is busy: regressing log item time on log reference time
 * over the rounds of a run gave slopes of 1.3 to 1.8 on every
 * workload, so a time is scaled by (nominal / measured)^1.5.
 */
constexpr double kReferenceElasticity = 1.5;

/** Factor that scales a time measured at @p referenceMs to nominal. */
double
nominalScale(double referenceMs)
{
    return std::pow(kNominalReferenceMs / referenceMs, kReferenceElasticity);
}

/** The least of three reference runs: an interrupt slows only one. */
double
referenceMs()
{
    return std::min({referenceRunMs(), referenceRunMs(), referenceRunMs()});
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** Host time one attempted operation took. */
struct ItemTimes
{
    double wallMs = 0;
    double compileMs = 0; ///< inside driver::compile
    double simMs = 0;     ///< Simulator construction plus run()
    double referenceMs = 0; ///< mean of referenceMs() before and after
};

/** What one set-up or one round did. */
struct Round
{
    Tracer *tracer = nullptr;
    bool profilePasses = false;

    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::string> failures; ///< first few, for stderr
    /** Deterministic counters; the determinism guard compares them. */
    std::map<std::string, int64_t> counts;
    /** Host time by name (pass.<name>.ms, driver.compile_ms.lK). */
    std::map<std::string, double> times;
    /** One entry per item, in the workload's fixed order. */
    std::vector<ItemTimes> items;
    double compileMs = 0; ///< running totals the items' times come from
    double simMs = 0;
    double wallMs = 0;
    /** referenceMs() at the end of the last item, 0 before the first. */
    double lastReferenceMs = 0;

    bool itemFailed = false;

    /** Fail the current item; an item counts as failed once. */
    void fail(const std::string &why)
    {
        if (failures.size() < 4)
            failures.push_back(why);
        if (!itemFailed)
            ++failed;
        itemFailed = true;
    }
    void count(const std::string &key, int64_t n) { counts[key] += n; }
    int64_t
    countOf(const std::string &key) const
    {
        auto it = counts.find(key);
        return it == counts.end() ? 0 : it->second;
    }
};

/**
 * One attempted operation (a fuzz program, a simulation, a compile):
 * the root span of its layer calls, and one row of Round::items.
 */
class Item
{
  public:
    explicit Item(Round &r)
        : r_(r), span_(r.tracer, "bench"), compile0_(r.compileMs),
          sim0_(r.simMs)
    {
        ++r.attempted;
        r.itemFailed = false;
    }
    ~Item()
    {
        double wallMs = msSince(t0_);
        r_.lastReferenceMs = referenceMs();
        r_.items.push_back({wallMs, r_.compileMs - compile0_,
                            r_.simMs - sim0_,
                            (reference0_ + r_.lastReferenceMs) / 2});
    }
    Item(const Item &) = delete;
    Item &operator=(const Item &) = delete;

  private:
    Round &r_;
    Tracer::Scope span_;
    double compile0_, sim0_;
    double reference0_ =
        r_.lastReferenceMs ? r_.lastReferenceMs : referenceMs();
    Clock::time_point t0_ = Clock::now();
};

int
loopsStreamed(const driver::CompileResult &cr)
{
    int n = 0;
    for (const auto &sr : cr.streamingReports)
        n += sr.loopsStreamed;
    return n;
}

int64_t
codeInsts(const rtl::Program &prog)
{
    int64_t n = 0;
    for (const auto &fn : prog.functions())
        for (const auto &bb : fn->blocks())
            n += static_cast<int64_t>(bb->insts.size());
    return n;
}

// --- Calls into the layers, each inside its span ---------------------

/** Parse and interpret @p source: the reference every check matches. */
bool
runOracle(Round &r, const std::string &source, int64_t &value)
{
    DiagEngine diag;
    std::unique_ptr<frontend::TranslationUnit> unit;
    {
        Tracer::Scope span(r.tracer, "frontend");
        unit = frontend::parseAndCheck(source, diag);
    }
    if (!unit) {
        r.fail("oracle: " + diag.str());
        return false;
    }
    std::unique_ptr<interp::Interpreter> in;
    {
        Tracer::Scope span(r.tracer, "interp.setup");
        in = std::make_unique<interp::Interpreter>(*unit);
    }
    interp::InterpResult res;
    {
        Tracer::Scope span(r.tracer, "interp.run");
        res = in->run();
    }
    r.count("interp.steps", static_cast<int64_t>(res.stepsExecuted));
    if (!res.ok) {
        r.fail("oracle: " + res.error);
        return false;
    }
    value = res.returnValue;
    return true;
}

/** driver::compile; a thrown InternalError is a failed compile. */
driver::CompileResult
compile(Round &r, const std::string &source, driver::CompileOptions opts)
{
    opts.profilePasses = r.profilePasses;
    driver::CompileResult cr;
    Clock::time_point t0 = Clock::now();
    {
        Tracer::Scope span(r.tracer, "driver");
        try {
            cr = driver::compile({"perfbench", source, opts});
        } catch (const std::exception &e) {
            cr.ok = false;
            cr.diagnostics = e.what();
        }
    }
    r.compileMs += msSince(t0);
    r.count("driver.compiles", 1);
    for (const obs::PassProfile &p : cr.passProfiles) {
        r.times["pass." + p.name + ".ms"] += p.wallMs;
        r.count("pass." + p.name + ".insts_delta", p.instsDelta());
    }
    if (cr.ok) {
        r.count("code_insts", codeInsts(*cr.program));
        r.count("streaming.loops_streamed", loopsStreamed(cr));
        r.count("recurrence.recurrences_optimized", cr.totalRecurrences());
    }
    return cr;
}

wmsim::SimResult
simulate(Round &r, const rtl::Program &prog, const wmsim::SimConfig &cfg)
{
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<wmsim::Simulator> sim;
    {
        Tracer::Scope span(r.tracer, "wmsim.setup");
        sim = std::make_unique<wmsim::Simulator>(prog, cfg);
    }
    wmsim::SimResult res;
    {
        Tracer::Scope span(r.tracer, "wmsim.run");
        res = sim->run();
    }
    r.simMs += msSince(t0);
    sim.reset();
    auto cycles = static_cast<int64_t>(res.stats.cycles);
    r.count("wmsim.runs", 1);
    r.count("wmsim.cycles", cycles);
    r.count("wmsim.insts_dispatched",
            static_cast<int64_t>(res.stats.instsDispatched));
    return res;
}

verify::FifoRequirements
analyzeFifo(Round &r, driver::CompileResult &cr, int depth)
{
    verify::FifoRequirements req;
    {
        Tracer::Scope span(r.tracer, "verify.fifodepth");
        req = verify::analyzeFifoRequirements(*cr.program, cr.traits, depth);
    }
    if (req.analyzed)
        r.count(req.deadlockFree ? "verify.deadlock_free" : "verify.flagged",
                1);
    return req;
}

timing::ScalarRunResult
runScalar(Round &r, const rtl::Program &prog)
{
    timing::CostModel model = timing::m88100Model();
    timing::ScalarRunResult res;
    {
        Tracer::Scope span(r.tracer, "timing.run");
        res = timing::runScalar(prog, model, kScalarMaxInsts);
    }
    r.count("timing.insts", static_cast<int64_t>(res.instsExecuted));
    return res;
}

// --- Workloads -------------------------------------------------------

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Prepare the inputs; may run several times, the last one counts. */
    virtual void setup(Round &r) = 0;
    /** One pass over the inputs; each item is one attempted operation. */
    virtual void round(Round &r) = 0;
    /** Digest of the generated inputs, recorded for the default seed. */
    virtual uint64_t inputDigest() const = 0;
};

/** Seeded Fisher-Yates permutation of 0..n-1. */
std::vector<int>
shuffledOrder(uint64_t seed, int n)
{
    std::vector<int> order(n);
    for (int i = 0; i < n; ++i)
        order[i] = i;
    support::Rng rng(seed);
    for (int i = n - 1; i > 0; --i)
        std::swap(order[i], order[rng.nextBelow(i + 1)]);
    return order;
}

class FuzzWorkload : public Workload
{
  public:
    explicit FuzzWorkload(uint64_t seed) : root_(seed) {}

    void
    setup(Round &r) override
    {
        digest_ = fnv1a64("fuzz");
        for (int i = 0; i < kPrograms; ++i)
            digest_ = fnv1a64(source(i), digest_);
        // Warm the allocator and code paths on one program.
        checkProgram(r, 0);
    }

    void
    round(Round &r) override
    {
        for (int i = 0; i < kPrograms; ++i)
            checkProgram(r, i);
    }

    uint64_t inputDigest() const override { return digest_; }

  private:
    // 126 = 2 * 7 * 9: every index-keyed variation of the config
    // matrix (memory latency mod 9, FIFO depth mod 7, vectorize mod 2,
    // min-trip mod 3) is covered equally often in a round.
    static constexpr int kPrograms = 126;

    std::string
    source(int i) const
    {
        support::Rng rng = root_.split(static_cast<uint64_t>(i));
        // Statement counts 1..3 in equal shares, decorrelated from the
        // min-trip variation (index mod 3), so two seeds differ in
        // program shape but not in program size mix.
        return renderProgram(generateSpec(rng, 1 + (i / 3) % 3));
    }

    void
    checkProgram(Round &r, int i)
    {
        Item item(r);
        std::string src;
        {
            Tracer::Scope span(r.tracer, "gen");
            src = source(i);
        }
        int64_t expect = 0;
        if (!runOracle(r, src, expect))
            return;
        std::string errors;
        for (const FuzzConfig &cfg : fuzzConfigs(static_cast<uint64_t>(i))) {
            std::string err = check(r, src, expect, cfg);
            if (!err.empty())
                errors += strFormat(" [%s] %s", cfg.key.c_str(), err.c_str());
        }
        if (!errors.empty())
            r.fail(strFormat("fuzz program %d:%s", i, errors.c_str()));
    }

    /** One configuration against the oracle; "" when it agrees. */
    static std::string
    check(Round &r, const std::string &src, int64_t expect,
          const FuzzConfig &cfg)
    {
        driver::CompileResult cr = compile(r, src, cfg.opts);
        if (!cr.ok)
            return "compile: " + cr.diagnostics;
        if (!cr.verifyClean())
            return "verify: " + cr.verifyText();
        int64_t actual = 0;
        if (cfg.opts.target == rtl::MachineKind::WM) {
            verify::FifoRequirements req =
                analyzeFifo(r, cr, cfg.simCfg.dataFifoDepth);
            wmsim::SimResult res = simulate(r, *cr.program, cfg.simCfg);
            if (cfg.cycles != CycleSum::None)
                r.count(cfg.cycles == CycleSum::Streamed ? "cycles.streamed"
                                                         : "cycles.base",
                        static_cast<int64_t>(res.stats.cycles));
            if (!res.ok) {
                if (req.deadlockFree && res.fault == wmsim::SimFault::Deadlock)
                    return "static verdict deadlock-free, watchdog fired: " +
                           res.error;
                return "run: " + res.error;
            }
            actual = res.returnValue;
        } else {
            timing::ScalarRunResult res = runScalar(r, *cr.program);
            if (!res.ok)
                return "run: " + res.error;
            actual = res.returnValue;
        }
        if (actual != expect)
            return strFormat("returned %" PRId64 ", oracle %" PRId64, actual,
                             expect);
        return "";
    }

    support::Rng root_;
    uint64_t digest_ = 0;
};

class Table2Workload : public Workload
{
  public:
    explicit Table2Workload(uint64_t seed) : seed_(seed) {}

    void
    setup(Round &r) override
    {
        items_.clear();
        digest_ = fnv1a64("table2");
        for (const auto &prog : programs::tableIIPrograms()) {
            Item it(r);
            int64_t expect = 0;
            if (!runOracle(r, prog.source, expect))
                continue;
            for (bool stream : {false, true}) {
                driver::CompileOptions opts;
                opts.streaming = stream;
                Compiled item{prog.name, stream ? "streamed" : "base", expect,
                              compile(r, prog.source, opts)};
                if (!item.cr.ok) {
                    r.fail(prog.name + " " + item.variant +
                           " compile: " + item.cr.diagnostics);
                    continue;
                }
                items_.push_back(std::move(item));
            }
        }
        order_ = shuffledOrder(seed_, static_cast<int>(items_.size()));
        for (int i : order_)
            digest_ = fnv1a64(items_[i].name + "." + items_[i].variant + "\n" +
                                  programs::programSource(items_[i].name),
                              digest_);
    }

    void
    round(Round &r) override
    {
        for (int i : order_) {
            const Compiled &item = items_[i];
            Item it(r);
            wmsim::SimResult res = simulate(r, *item.cr.program, {});
            auto cycles = static_cast<int64_t>(res.stats.cycles);
            r.count("cycles." + item.variant, cycles);
            r.count("wmsim.cycles." + item.name + "." + item.variant, cycles);
            if (!res.ok)
                r.fail(item.name + " " + item.variant + ": " + res.error);
            else if (res.returnValue != item.expect)
                r.fail(strFormat("%s %s returned %" PRId64
                                 ", interpreter %" PRId64,
                                 item.name.c_str(), item.variant.c_str(),
                                 res.returnValue, item.expect));
        }
    }

    uint64_t inputDigest() const override { return digest_; }

  private:
    struct Compiled
    {
        std::string name;
        std::string variant; ///< "base" (streaming off) or "streamed"
        int64_t expect;
        driver::CompileResult cr;
    };

    uint64_t seed_;
    std::vector<Compiled> items_;
    std::vector<int> order_;
    uint64_t digest_ = 0;
};

class BigTuWorkload : public Workload
{
  public:
    explicit BigTuWorkload(uint64_t seed)
    {
        // k <= 48 keeps every loop under the streaming pass's 64-round
        // cap, and the arrays are global because frame objects share
        // one memory partition and never stream: a later change that
        // lifts either limit leaves this workload's work unchanged.
        const int sizes[] = {8, 16, 32, 48};
        for (int i : shuffledOrder(seed, 4))
            loops_.push_back(sizes[i]);
        digest_ = fnv1a64("bigtu");
        for (int k : loops_)
            digest_ = fnv1a64(bigTuSource(k), digest_);
    }

    /**
     * Each size compiles once with the verifier on the final program
     * and once with streaming off, and both run in the simulator
     * against the interpreter. The timed loop then only compiles.
     */
    void
    setup(Round &r) override
    {
        for (int k : loops_) {
            std::string src = bigTuSource(k);
            Item item(r);
            int64_t expect = 0;
            if (!runOracle(r, src, expect))
                continue;
            for (bool stream : {true, false}) {
                driver::CompileOptions opts;
                opts.streaming = stream;
                opts.verify = driver::VerifyMode::Final;
                driver::CompileResult cr = compile(r, src, opts);
                std::string what = strFormat("l%d %s", k,
                                             stream ? "streamed" : "base");
                if (!cr.ok || !cr.verifyClean()) {
                    r.fail(what + ": " + cr.diagnostics + cr.verifyText());
                    continue;
                }
                wmsim::SimResult res = simulate(r, *cr.program, {});
                r.count(stream ? "cycles.streamed" : "cycles.base",
                        static_cast<int64_t>(res.stats.cycles));
                if (!res.ok || res.returnValue != expect)
                    r.fail(strFormat("%s: returned %" PRId64
                                     ", interpreter %" PRId64 " %s",
                                     what.c_str(), res.returnValue, expect,
                                     res.error.c_str()));
            }
        }
    }

    void
    round(Round &r) override
    {
        for (int k : loops_) {
            Item item(r);
            Clock::time_point t0 = Clock::now();
            driver::CompileResult cr = compile(r, bigTuSource(k), {});
            r.times[strFormat("driver.compile_ms.l%d", k)] += msSince(t0);
            if (!cr.ok) {
                r.fail(strFormat("l%d: %s", k, cr.diagnostics.c_str()));
                continue;
            }
            if (int streamed = loopsStreamed(cr); streamed != k + 1)
                r.fail(strFormat("l%d: %d of %d loops streamed", k, streamed,
                                 k + 1));
        }
    }

    uint64_t inputDigest() const override { return digest_; }

  private:
    std::vector<int> loops_;
    uint64_t digest_ = 0;
};

// --- Running and reporting -------------------------------------------

/**
 * Run rounds until @p deadline (at least one), or exactly @p count
 * rounds when @p count is nonzero.
 */
std::vector<Round>
runRounds(Workload &w, Clock::time_point deadline, size_t count,
          Tracer *tracer)
{
    std::vector<Round> rounds;
    while (count ? rounds.size() < count
                 : rounds.empty() || Clock::now() < deadline) {
        Round r;
        r.tracer = tracer;
        r.profilePasses = tracer != nullptr;
        Clock::time_point t0 = Clock::now();
        w.round(r);
        r.wallMs = msSince(t0);
        rounds.push_back(std::move(r));
    }
    return rounds;
}

/**
 * Determinism guard: the counters of @p b must equal those of @p a on
 * every key both have. Returns the number of differing keys.
 */
int
countMismatches(const Round &a, const Round &b, const char *what)
{
    int bad = 0;
    for (const auto &[key, value] : a.counts) {
        auto it = b.counts.find(key);
        if (it == b.counts.end() || it->second == value)
            continue;
        if (bad++ < 4)
            std::fprintf(stderr,
                         "determinism: %s: %s = %" PRId64 " vs %" PRId64 "\n",
                         what, key.c_str(), value, it->second);
    }
    return bad;
}

struct Metric
{
    std::string name;
    const char *unit;
    double value;
};

/** Value of counter @p key: the timed rounds', else the set-up's. */
double
counter(const std::vector<Round> &rounds, const Round &setup,
        const std::string &key)
{
    int64_t n = rounds.front().countOf(key);
    return static_cast<double>(n ? n : setup.countOf(key));
}

/**
 * Sum over items of the median over @p rounds of the item's time,
 * each time scaled to the nominal host speed by the reference runs
 * around it (nominalScale). Scaling takes out most of the host's
 * drift in speed; the median drops rounds where the reference missed a
 * change of speed within a long item.
 */
double
scaledSumMs(const std::vector<Round> &rounds, double ItemTimes::*field)
{
    double sum = 0;
    for (size_t i = 0; i < rounds.front().items.size(); ++i) {
        std::vector<double> scaled;
        for (const Round &r : rounds) {
            const ItemTimes &t = r.items[i];
            scaled.push_back(t.*field * nominalScale(t.referenceMs));
        }
        sum += median(scaled);
    }
    return sum;
}

std::vector<Metric>
endToEndMetrics(const std::vector<Round> &rounds,
                const std::vector<Round> &setups,
                const std::vector<double> &setupSeconds)
{
    const Round &setup = setups.back();
    // Compiles and simulations are timed in the loop where the loop
    // does them, else in set-up (table2 compiles, bigtu simulates
    // there).
    const std::vector<Round> &compiles =
        rounds.front().countOf("driver.compiles") ? rounds : setups;
    const std::vector<Round> &sims =
        rounds.front().countOf("wmsim.runs") ? rounds : setups;
    double items = static_cast<double>(rounds.front().items.size());
    return {
        {"setup_s", "s", median(setupSeconds)},
        {"peak_heap_mb", "MB", peakHeapMb()},
        {"programs_per_s", "1/s",
         items / (scaledSumMs(rounds, &ItemTimes::wallMs) / 1e3)},
        {"compile_ms", "ms",
         scaledSumMs(compiles, &ItemTimes::compileMs) /
             static_cast<double>(compiles.front().countOf("driver.compiles"))},
        {"sim_cycles_per_s", "1/s",
         static_cast<double>(sims.front().countOf("wmsim.cycles")) /
             (scaledSumMs(sims, &ItemTimes::simMs) / 1e3)},
        {"cycles.streamed", "count",
         counter(rounds, setup, "cycles.streamed")},
        {"cycles.base", "count", counter(rounds, setup, "cycles.base")},
        {"code_insts", "count", counter(rounds, setup, "code_insts")},
    };
}

const char *const kPasses[] = {
    "frontend",           "expand",          "cleanup",
    "legalize",           "recurrence",      "recurrence-cleanup",
    "streaming",          "streaming-cleanup", "vectorize",
    "branch-anticipate",  "strength-reduce", "strength-cleanup",
    "regalloc",           "lower-fifo",      "fifo-depth",
};

std::vector<Metric>
perLayerMetrics(const std::vector<Round> &untraced,
                const std::vector<Round> &traced, const Tracer &tracer)
{
    double n = static_cast<double>(traced.size());
    std::map<std::string, double> self = tracer.selfMsByLayer();
    std::map<std::string, double> times;
    for (const Round &r : traced)
        for (const auto &[key, ms] : r.times)
            times[key] += ms;
    auto perRound = [&](const std::map<std::string, double> &m,
                        const std::string &key) {
        auto it = m.find(key);
        return it == m.end() ? 0.0 : it->second / n;
    };
    auto count = [&](const std::string &key) {
        return static_cast<double>(traced.front().countOf(key));
    };

    std::vector<Metric> m;
    double passTotal = 0;
    for (const char *p : kPasses) {
        std::string base = std::string("pass.") + p;
        double ms = perRound(times, base + ".ms");
        passTotal += ms;
        m.push_back({base + ".ms", "ms", ms});
        m.push_back({base + ".insts_delta", "count",
                     count(base + ".insts_delta")});
    }
    double driverMs = perRound(self, "driver");
    m.push_back({"verify.ms", "ms", driverMs - passTotal});
    m.push_back({"verify.fifodepth_ms", "ms",
                 perRound(self, "verify.fifodepth")});
    m.push_back({"verify.deadlock_free", "count",
                 count("verify.deadlock_free")});
    m.push_back({"verify.flagged", "count", count("verify.flagged")});
    m.push_back({"driver.compile_ms", "ms", driverMs});
    m.push_back({"driver.compiles", "count", count("driver.compiles")});
    for (int k : {8, 16, 32, 48}) {
        std::string key = strFormat("driver.compile_ms.l%d", k);
        m.push_back({key, "ms", perRound(times, key)});
    }
    m.push_back({"streaming.loops_streamed", "count",
                 count("streaming.loops_streamed")});
    m.push_back({"recurrence.recurrences_optimized", "count",
                 count("recurrence.recurrences_optimized")});
    m.push_back({"frontend.oracle_ms", "ms", perRound(self, "frontend")});
    m.push_back({"interp.setup_ms", "ms", perRound(self, "interp.setup")});
    m.push_back({"interp.run_ms", "ms", perRound(self, "interp.run")});
    m.push_back({"interp.steps", "count", count("interp.steps")});
    m.push_back({"wmsim.setup_ms", "ms", perRound(self, "wmsim.setup")});
    m.push_back({"wmsim.run_ms", "ms", perRound(self, "wmsim.run")});
    m.push_back({"wmsim.runs", "count", count("wmsim.runs")});
    m.push_back({"wmsim.cycles", "count", count("wmsim.cycles")});
    m.push_back({"wmsim.insts_dispatched", "count",
                 count("wmsim.insts_dispatched")});
    for (const auto &prog : programs::tableIIPrograms())
        for (const char *v : {"base", "streamed"}) {
            std::string key = "wmsim.cycles." + prog.name + "." + v;
            m.push_back({key, "count", count(key)});
        }
    m.push_back({"timing.run_ms", "ms", perRound(self, "timing.run")});
    m.push_back({"timing.insts", "count", count("timing.insts")});
    m.push_back({"gen.ms", "ms", perRound(self, "gen")});
    m.push_back({"bench.self_ms", "ms", perRound(self, "bench")});

    // Overhead compares best rounds: the host's slow periods are longer
    // than a round and would swamp a difference of means.
    double tracedMs = 0, bestTraced = traced.front().wallMs,
           bestUntraced = untraced.front().wallMs;
    for (const Round &r : traced) {
        tracedMs += r.wallMs / n;
        bestTraced = std::min(bestTraced, r.wallMs);
    }
    for (const Round &r : untraced)
        bestUntraced = std::min(bestUntraced, r.wallMs);
    double overheadPct = 100.0 * (bestTraced - bestUntraced) / bestUntraced;
    m.push_back({"trace.round_ms", "ms", bestTraced});
    m.push_back({"trace.untraced_round_ms", "ms", bestUntraced});
    m.push_back({"trace.overhead_pct", "%", overheadPct});

    std::fprintf(stderr, "\nper-layer self time, traced run (%zu rounds)\n",
                 traced.size());
    std::fprintf(stderr, "%-22s %12s %8s\n", "layer", "ms/round", "share");
    for (const auto &[layer, ms] : self)
        std::fprintf(stderr, "%-22s %12.3f %7.1f%%\n", layer.c_str(), ms / n,
                     100.0 * ms / n / tracedMs);
    std::fprintf(stderr, "%-22s %12.3f\n", "  of which passes", passTotal);
    std::fprintf(stderr, "%-22s %12.3f (mean)\n", "traced round", tracedMs);
    std::fprintf(stderr, "%-22s %12.3f\n", "best traced round", bestTraced);
    std::fprintf(stderr, "%-22s %12.3f\n", "best untraced round",
                 bestUntraced);
    std::fprintf(stderr, "%-22s %+12.2f%%\n", "tracing overhead",
                 overheadPct);
    return m;
}

void
printResult(bool correct, int64_t attempted, int64_t failed,
            const std::vector<Metric> &metrics, uint64_t digest)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRId64
                ", \"failed\": %" PRId64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit);
    std::printf("}, \"input_digest\": \"%016" PRIx64 "\"}\n", digest);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload fuzz|table2|bigtu --seed N "
                 "--seconds S --trace 0|1 [--spans-out FILE]\n");
    return 2;
}

} // anonymous namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    std::string workload, spansOut;
    uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i], value = argv[i + 1];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed")
            seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace")
            trace = std::atoi(value.c_str());
        else if (flag == "--spans-out")
            spansOut = value;
        else
            return usage();
    }
    if (argc % 2 == 0 || seconds <= 0 || (trace != 0 && trace != 1))
        return usage();

    std::unique_ptr<Workload> w;
    if (workload == "fuzz")
        w = std::make_unique<FuzzWorkload>(seed);
    else if (workload == "table2")
        w = std::make_unique<Table2Workload>(seed);
    else if (workload == "bigtu")
        w = std::make_unique<BigTuWorkload>(seed);
    else
        return usage();

    // Set-ups alternate with the untraced rounds, so the set-up times
    // (and table2's compiles, bigtu's simulations) sample the whole
    // run, not one moment of a noisy host. Phase deadlines are fixed
    // from the start, so a long round or set-up shortens the next phase
    // instead of lengthening the run.
    std::vector<Round> setups, untraced, traced;
    std::vector<double> setupSeconds;
    Clock::time_point start = Clock::now();
    auto phase = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>((trace ? seconds / 2 : seconds) /
                                      (kSetupReps - 1)));
    for (int i = 0; i < kSetupReps; ++i) {
        Round r;
        double reference0 = referenceMs();
        Clock::time_point t0 = Clock::now();
        w->setup(r);
        double ms = msSince(t0);
        // Median over the set-up's reference runs: the set-up is long
        // enough for the host's speed to change within it.
        std::vector<double> refs = {reference0, referenceMs()};
        for (const ItemTimes &t : r.items)
            refs.push_back(t.referenceMs);
        setupSeconds.push_back(ms * nominalScale(median(refs)) / 1e3);
        setups.push_back(std::move(r));
        if (i + 1 < kSetupReps)
            for (Round &rr : runRounds(*w, start + (i + 1) * phase, 0, nullptr))
                untraced.push_back(std::move(rr));
    }
    Tracer tracer;
    if (trace)
        traced = runRounds(*w, {}, untraced.size(), &tracer);

    int64_t attempted = 0, failed = 0;
    int mismatches = 0;
    for (const std::vector<Round> *rs : {&setups, &untraced, &traced})
        for (const Round &r : *rs) {
            attempted += r.attempted;
            failed += r.failed;
            for (const std::string &f : r.failures)
                std::fprintf(stderr, "FAIL %s\n", f.c_str());
        }
    for (size_t i = 1; i < setups.size(); ++i)
        mismatches += countMismatches(setups[0], setups[i], "set-up");
    for (size_t i = 1; i < untraced.size(); ++i)
        mismatches += countMismatches(untraced[0], untraced[i], "round");
    for (const Round &r : traced)
        mismatches += countMismatches(untraced[0], r, "traced round");
    for (size_t i = 1; i < traced.size(); ++i)
        mismatches += countMismatches(traced[0], traced[i], "traced round");
    failed += mismatches;

    std::vector<Metric> metrics =
        trace ? perLayerMetrics(untraced, traced, tracer)
              : endToEndMetrics(untraced, setups, setupSeconds);
    if (trace && !spansOut.empty() && !tracer.writeChromeTrace(spansOut)) {
        std::fprintf(stderr, "cannot write %s\n", spansOut.c_str());
        return 1;
    }
    std::fprintf(stderr, "%s: %zu rounds, %" PRId64 " attempted, %" PRId64
                         " failed\n",
                 workload.c_str(), untraced.size() + traced.size(), attempted,
                 failed);
    printResult(failed == 0, attempted, failed, metrics, w->inputDigest());
    return 0;
}
