/**
 * @file
 * Shared helpers for the experiment harnesses.
 *
 * Every bench binary reproduces one table or figure from the paper (or
 * pins one deterministic shape of the toolchain): it prints the
 * paper-style rows and, with `--json-out=FILE`, writes the same rows as
 * JSON for tools/benchdiff.py. Every printed number is a pure function
 * of the sources and options; host time is measured by perfbench/.
 */

#ifndef WMSTREAM_BENCH_COMMON_H
#define WMSTREAM_BENCH_COMMON_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "driver/compiler.h"
#include "obs/counters.h"
#include "obs/json.h"
#include "wmsim/sim.h"

namespace wsbench {

/** Compile for WM and run on the cycle simulator; panics on error. */
inline wmstream::wmsim::SimResult
runWm(const std::string &source, const wmstream::driver::CompileOptions &opts,
      wmstream::wmsim::SimConfig cfg = {})
{
    auto cr = wmstream::driver::compileSource(source, opts);
    if (!cr.ok) {
        std::fprintf(stderr, "compile failed:\n%s\n",
                     cr.diagnostics.c_str());
        std::abort();
    }
    cfg.maxCycles = 4'000'000'000ull;
    auto res = wmstream::wmsim::simulate(*cr.program, cfg);
    if (!res.ok) {
        std::fprintf(stderr, "simulation failed: %s\n", res.error.c_str());
        std::abort();
    }
    return res;
}

/** Percentage reduction from @p base to @p opt. */
inline double
pctReduction(double base, double opt)
{
    return 100.0 * (base - opt) / base;
}

/**
 * Machine-readable mirror of a harness's printed table: one row per
 * table line, each a label plus numeric columns, optionally with the
 * full simulator counter set attached. Build rows while printing, then
 * serialize with emitJson().
 */
class JsonReport
{
public:
    /** Start a new row. Subsequent num()/sim() calls attach to it. */
    JsonReport &row(std::string label)
    {
        rows_.emplace_back();
        rows_.back().label = std::move(label);
        return *this;
    }

    /** Add numeric column @p key = @p v to the current row. */
    JsonReport &num(std::string key, double v)
    {
        rows_.back().nums.emplace_back(std::move(key), v);
        return *this;
    }

    /** Attach the simulator counters (stall causes etc.) to the row. */
    JsonReport &sim(const wmstream::wmsim::SimStats &stats)
    {
        wmstream::obs::CounterRegistry reg;
        stats.exportCounters(reg);
        rows_.back().counters = reg.entries();
        return *this;
    }

    bool empty() const { return rows_.empty(); }

    /**
     * Serialize as {"schema_version":1, "bench": name, "rows": [...]}
     * (schema documented in DESIGN.md "JSON schemas").
     */
    std::string str(const std::string &bench) const
    {
        wmstream::obs::JsonWriter w;
        w.beginObject();
        w.field("schema_version", int64_t{1});
        w.field("bench", bench);
        w.key("rows");
        w.beginArray();
        for (const auto &r : rows_) {
            w.beginObject();
            w.field("label", r.label);
            for (const auto &kv : r.nums)
                w.field(kv.first, kv.second);
            if (!r.counters.empty()) {
                w.key("sim");
                w.beginObject();
                for (const auto &kv : r.counters)
                    w.field(kv.first,
                            static_cast<uint64_t>(kv.second));
                w.endObject();
            }
            w.endObject();
        }
        w.endArray();
        w.endObject();
        return w.str();
    }

private:
    struct Row
    {
        std::string label;
        std::vector<std::pair<std::string, double>> nums;
        std::vector<std::pair<std::string, uint64_t>> counters;
    };
    std::vector<Row> rows_;
};

/**
 * Parse a harness command line. `--json-out=FILE` is the only flag, and
 * only harnesses with a JSON mirror (@p hasJson) take it; returns FILE,
 * or "" when the flag is absent. Any other argument is a usage error:
 * print it and exit 2.
 */
inline std::string
parseJsonOutFlag(int argc, char **argv, bool hasJson = true)
{
    std::string path;
    for (int i = 1; i < argc; ++i) {
        if (hasJson && std::strncmp(argv[i], "--json-out=", 11) == 0) {
            path = argv[i] + 11;
            continue;
        }
        std::fprintf(stderr, "%s: unknown argument %s\nusage: %s%s\n",
                     argv[0], argv[i], argv[0],
                     hasJson ? " [--json-out=FILE|-]" : "");
        std::exit(2);
    }
    return path;
}

/**
 * Write @p report to @p path ("-" for stdout); no-op when @p path is
 * empty. Returns false (after a diagnostic) if the file can't be
 * written.
 */
inline bool
emitJson(const std::string &path, const std::string &bench,
         const JsonReport &report)
{
    if (path.empty())
        return true;
    std::string text = report.str(bench);
    if (path == "-") {
        std::printf("%s\n", text.c_str());
        return true;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    size_t n = std::fwrite(text.data(), 1, text.size(), f);
    bool ok = n == text.size();
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

} // namespace wsbench

#endif // WMSTREAM_BENCH_COMMON_H
