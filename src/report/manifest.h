/**
 * @file
 * Run-manifest assembly: every machine-readable artifact one wmc
 * invocation produces, bundled into a single schema_version'd JSON
 * document, plus the Prometheus metrics export and the per-window
 * trace counter tracks derived from the same data.
 *
 * This layer exists because no lower library may know about all the
 * producers at once: obs is below everything, the driver does not
 * link the simulators, and the simulators do not know about compile
 * results. ws_report sits above driver + wmsim + timing + obs and
 * owns the document shapes; wmc (and the schema tests) call in here
 * instead of hand-rolling JSON.
 *
 * Document kinds emitted from this header:
 *  - the per-run stats document (`wmc --stats-json`), in its success,
 *    faulted, and scalar-target variants;
 *  - the run manifest (`wmc --manifest`): tool identity, host
 *    throughput, and the remarks / stats / timeseries sections
 *    embedded as sub-documents;
 *  - the Prometheus text exposition (`wmc --metrics-out`).
 */

#ifndef WMSTREAM_REPORT_MANIFEST_H
#define WMSTREAM_REPORT_MANIFEST_H

#include <cstdint>
#include <string>

#include "driver/compiler.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "report/critpath_report.h"
#include "timing/scalar_sim.h"
#include "wmsim/sim.h"

namespace wmstream::report {

/**
 * Host-side (wall-clock) throughput for one run. Everything here is
 * machine-dependent by nature, so no regression gate may compare
 * these fields (tools/benchdiff.py reads bench reports only, never a
 * manifest).
 */
struct HostMetrics
{
    double compileWallMs = 0.0;
    double simWallMs = 0.0; ///< 0 when no simulation ran
    uint64_t simCycles = 0; ///< simulated cycles covered by simWallMs

    /** Simulated cycles per wall-clock second (0 when unmeasured). */
    double simCyclesPerSec() const;

    /** {"compile_wall_ms":..,"sim_wall_ms":..,"sim_cycles_per_sec":..} */
    void writeJson(obs::JsonWriter &w) const;
};

/** The "compile" section shared by the stats documents. */
void writeCompileSection(obs::JsonWriter &w,
                         const driver::CompileResult &compiled);

/**
 * The WM stats document `wmc --stats-json` emits on a successful run:
 * schema_version, source/target, exit value, sim config, compile
 * section, "sim" counters, per-loop attribution, and occupancy
 * histograms.
 */
void writeWmStatsDoc(obs::JsonWriter &w, const std::string &source,
                     const driver::CompileResult &compiled,
                     const wmsim::SimConfig &cfg,
                     const wmsim::SimResult &res);

/**
 * The stats document for a faulted WM run: the error line plus a
 * "fault" section with the kind and (for deadlock/livelock) the full
 * forensic report. Consumers key on the presence of "fault".
 */
void writeWmFaultDoc(obs::JsonWriter &w, const std::string &source,
                     const wmsim::SimResult &res);

/** The stats document for the scalar (68020) timing model. */
void writeScalarStatsDoc(obs::JsonWriter &w, const std::string &source,
                         const std::string &modelName,
                         const driver::CompileResult &compiled,
                         const timing::ScalarRunResult &res);

/**
 * One wmc invocation's artifacts, by reference; everything pointed to
 * must outlive the manifest. `compiled` is required; the rest is
 * optional and the written document simply omits absent sections
 * (compile-only runs have no "stats", scalar runs no "timeseries").
 */
struct RunManifest
{
    std::string toolVersion;
    std::string source;
    std::string target; ///< "wm" or "68020"
    HostMetrics host;
    const driver::CompileResult *compiled = nullptr;

    // WM simulator results.
    const wmsim::SimConfig *simConfig = nullptr;
    const wmsim::SimResult *simResult = nullptr;
    const obs::TimeSeries *timeseries = nullptr;
    const CritPathReport *critpath = nullptr;

    // Scalar timing-model results.
    std::string modelName;
    const timing::ScalarRunResult *scalarResult = nullptr;

    /**
     * {"schema_version":1,"kind":"run_manifest","tool":"wmc",
     *  "tool_version":..,"source":..,"target":..,"host":{..},
     *  "remarks":{..},"stats":{..},"timeseries":{..},
     *  "critical_path":{..}}
     * The embedded sections are the exact sub-documents their
     * standalone flags emit, so one parser serves both shapes.
     */
    void writeJson(obs::JsonWriter &w) const;
};

/**
 * Export the manifest's numbers as Prometheus metrics: a wm_run_info
 * gauge carrying identity labels, wm_host_* gauges (wall-clock,
 * machine-dependent), wm_compile_* counters, and every "sim" counter
 * as wm_sim_*.
 */
void exportRunMetrics(obs::MetricsRegistry &m, const RunManifest &man);

/**
 * Add per-window counter tracks ("win.<channel>", one sample per
 * window at the window's start cycle, value = window count / window
 * cycles) for the headline channels to @p tw, so the Chrome trace
 * shows utilization and stall phases at flight-recorder resolution.
 */
void addTimelineCounterTracks(obs::TraceWriter &tw,
                              const obs::TimeSeries &ts);

} // namespace wmstream::report

#endif // WMSTREAM_REPORT_MANIFEST_H
