/**
 * @file
 * Parallel differential-fuzzing campaigns.
 *
 * A campaign draws `maxPrograms` random loop programs from a single
 * seed (one split PRNG stream per program index, so the program
 * stream is identical for any worker count), compiles each in every
 * CompileOptions configuration for both targets — the WM machine run
 * on the cycle simulator and the scalar target run on the executing
 * timing model — and diffs every result against the AST interpreter
 * oracle.
 *
 * Divergences (checksum mismatches, compile errors, runtime errors)
 * are deduplicated by (pass configuration, divergence signature); one
 * exemplar per signature is shrunk by the delta-debugging minimizer
 * (fuzz/minimize.h) and optionally written out as a self-contained
 * reproducer .c file. The whole campaign serializes to JSON via the
 * src/obs writer for CI artifact upload.
 *
 * Thread model: program indices are claimed from an atomic counter by
 * a support::ThreadPool; each worker compiles and simulates with
 * function-local state only (the compiler builds one DiagEngine per
 * compile; see DESIGN.md §9 for the reentrancy audit), so the only
 * shared mutations are the divergence list (mutex) and a couple of
 * atomic counters.
 */

#ifndef WMSTREAM_FUZZ_CAMPAIGN_H
#define WMSTREAM_FUZZ_CAMPAIGN_H

#include <cstdint>
#include <string>
#include <vector>

#include "driver/compiler.h"
#include "fuzz/generator.h"
#include "obs/json.h"
#include "wmsim/sim.h"

namespace wmstream::fuzz {

/** One compile-and-run configuration to diff against the oracle. */
struct FuzzConfig
{
    std::string key;             ///< stable id, e.g. "wm/rec+stream"
    driver::CompileOptions opts;
    wmsim::SimConfig simCfg;     ///< used when opts.target == WM
    /**
     * Chaos oracle: after a clean deterministic WM run, re-simulate
     * with this many chaos seeds (derived from chaosBaseSeed) and
     * require bit-identical return values — timing perturbation must
     * never change architectural results.
     */
    int chaosSeeds = 0;
    uint64_t chaosBaseSeed = 0;
};

/**
 * The standard configuration matrix for program @p programIndex:
 * WM with recurrence × streaming (plus vectorization and trip-count
 * threshold variation keyed off the index), and the scalar target
 * with recurrence on/off. Simulator parameters (memory latency, FIFO
 * depth) are varied deterministically by index, like the original
 * loopfuzz test. @p injectRecurrenceBug threads the fault-injection
 * flag into every configuration (it only bites where recurrence runs);
 * @p injectStreamCountBug likewise threads the deadlock self-test
 * miscompile (it only bites where streaming runs). @p chaosSeeds > 0
 * arms the chaos determinism oracle on every WM configuration.
 * @p injectVerifierBug threads the IR verifier's self-test miscompile
 * (a dropped stream dequeue; it only bites where streaming runs).
 *
 * Every configuration also arms the IR verifier (--verify=each) as a
 * third oracle — a verifier violation is a divergence even when the
 * program would have simulated correctly — except when
 * @p injectStreamCountBug or @p injectRecurrenceBug is set: those
 * self-tests need their planted miscompiles to reach the watchdog and
 * the differential diff respectively, and the verifier would now
 * catch both statically first.
 */
std::vector<FuzzConfig> configMatrix(uint64_t programIndex,
                                     bool injectRecurrenceBug,
                                     bool injectStreamCountBug = false,
                                     int chaosSeeds = 0,
                                     bool injectVerifierBug = false);

enum class DivergenceKind : uint8_t {
    Mismatch,     ///< compiled result != oracle checksum
    CompileError, ///< compiler rejected a generator-valid program
    RunError,     ///< simulator/timing model failed or timed out
    OracleError,  ///< the interpreter itself failed (generator bug)
    Deadlock,     ///< watchdog fault (deadlock or livelock) in wmsim
    ChaosBreak,   ///< chaos-perturbed run changed the result
    VerifyError,  ///< IR verifier violation (compile-time oracle)
    /**
     * Agreement oracle: the static FIFO analysis proved the program
     * deadlock-free, yet the simulator watchdog reported a deadlock,
     * or a re-simulation at the inferred minimum FIFO depth faulted
     * or returned a different value.
     * One of the two is wrong — an unsoundness in the static
     * analysis or a simulator bug — so this outranks a plain
     * Deadlock. Deduplicated by the watchdog's wait-for-graph
     * signature, like Deadlock. (The converse — statically
     * not-proven but a clean run — is expected incompleteness, not
     * a divergence.)
     */
    StaticFifoBreak,
    /**
     * A cleanup fixpoint stopped at its round cap while still changing
     * code (a `fixpoint-cap-hit` remark). Deduplicated by the cleanup
     * it happened in.
     */
    CleanupCap,
};

const char *divergenceKindName(DivergenceKind k);

/** Outcome of checking one spec under one configuration. */
struct CheckOutcome
{
    bool diverged = false;
    DivergenceKind kind = DivergenceKind::Mismatch;
    int64_t expected = 0;
    int64_t actual = 0;
    std::string detail; ///< compiler/simulator error text
    /**
     * FaultReport::signature() when the simulator reported a deadlock
     * or livelock: the wait-for-graph shape, used as the dedup key so
     * one FIFO-imbalance bug folds into one finding across programs.
     * For VerifyError: the sorted unique verifier-violation signatures
     * (reason@invariant), program-independent for the same dedup
     * purpose. For CleanupCap: fixpoint-cap-hit@<cleanup label>.
     */
    std::string faultSignature;
    /**
     * Static FIFO agreement oracle (WM configurations): whether
     * analyzeFifoRequirements ran on the compiled program, and its
     * verdict. Aggregated into CampaignResult so CI can assert the
     * sweep really exercised both verdicts (e.g. that every
     * --inject-deadlock-bug compile was flagged statically).
     */
    bool staticAnalyzed = false;
    bool staticDeadlockFree = false;
    /**
     * Whether the program, proven deadlock-free, was re-simulated
     * with its data FIFOs cut to the inferred minimum depth
     * (FifoRequirements::minDepth, at least 1). A fault or a changed
     * result there is a StaticFifoBreak.
     */
    bool depthResimulated = false;
};

/**
 * Compile @p spec under @p cfg, run it, and diff against the oracle.
 * Self-contained (runs its own oracle); this is the minimizer's
 * predicate building block.
 */
CheckOutcome checkSpec(const ProgramSpec &spec, const FuzzConfig &cfg);

/**
 * Dedup key: configuration key + divergence kind + the structural
 * features of the program that the loop transforms key on (same-cell
 * pairs, loop-carried distances, conditional guards, direction). Two
 * divergences with equal signatures are near-certainly the same bug.
 */
std::string divergenceSignature(const ProgramSpec &spec,
                                const FuzzConfig &cfg,
                                const CheckOutcome &outcome);

/** One deduplicated divergence, with its minimized reproducer. */
struct Divergence
{
    uint64_t programIndex = 0; ///< first program that hit it
    std::string signature;
    DivergenceKind kind = DivergenceKind::Mismatch;
    int64_t expected = 0;
    int64_t actual = 0;
    std::string detail;
    ProgramSpec spec;          ///< original failing program
    FuzzConfig config;
    int duplicates = 0;        ///< further raw hits folded into this

    ProgramSpec minimizedSpec; ///< == spec when minimization is off
    int minimizeAttempts = 0;
    std::string reproPath;     ///< written .c file (when reproDir set)
};

struct CampaignOptions
{
    uint64_t seed = 1;
    int maxPrograms = 1000;
    int jobs = 1;
    bool injectRecurrenceBug = false; ///< self-test fault injection
    /** Self-test for the deadlock watchdog: under-count streams. */
    bool injectStreamCountBug = false;
    /** Self-test for the IR verifier: drop one stream dequeue. */
    bool injectVerifierBug = false;
    /** Chaos seeds per WM config (0 disables the chaos oracle). */
    int chaosSeeds = 0;
    bool minimize = true;
    std::string reproDir;  ///< write reproducer .c files here if set
    bool progress = false; ///< print a progress line per 100 programs
};

struct CampaignResult
{
    int programsRun = 0;
    int64_t checksRun = 0;     ///< (program, config) pairs diffed
    int rawDivergences = 0;    ///< before deduplication
    std::vector<Divergence> divergences; ///< deduplicated, minimized
    /**
     * Order-independent digest over every generated source: equal
     * seeds yield equal digests for any job count, which is how the
     * tests pin down reproducibility.
     */
    uint64_t streamDigest = 0;
    double elapsedSeconds = 0;
    /**
     * Static-FIFO agreement tallies over every WM check: verdicts of
     * "deadlock-free" vs flagged ("not-proven"). A disagreement in
     * the dangerous direction (proven free, then the watchdog fired)
     * is a StaticFifoBreak divergence, not just a count.
     */
    int64_t staticDeadlockFree = 0;
    int64_t staticFlagged = 0;
    /** Checks re-simulated at the inferred minimum FIFO depth. */
    int64_t staticDepthResims = 0;

    bool clean() const { return divergences.empty(); }
};

/** Run a campaign. Blocks until generation, checking, dedup, and
 *  minimization complete. */
CampaignResult runCampaign(const CampaignOptions &opts);

/** Serialize the campaign report (options + result + reproducers). */
void writeCampaignJson(obs::JsonWriter &w, const CampaignOptions &opts,
                       const CampaignResult &res);

/** Render the self-contained reproducer file for @p d. */
std::string renderReproducer(const Divergence &d,
                             const CampaignOptions &opts);

} // namespace wmstream::fuzz

#endif // WMSTREAM_FUZZ_CAMPAIGN_H
