/**
 * @file
 * Schema audit: every machine-readable JSON document the toolchain
 * emits must parse, be a JSON object, and carry schema_version 1.
 *
 * One parametrized test covers all emitters so adding a document kind
 * without versioning it (or bumping a version without updating the
 * others deliberately) fails here, not in a downstream consumer.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "driver/compiler.h"
#include "fuzz/batch_campaign.h"
#include "fuzz/campaign.h"
#include "serve/batch.h"
#include "obs/json.h"
#include "obs/json_parse.h"
#include "obs/timeseries.h"
#include "report/manifest.h"
#include "timing/scalar_sim.h"
#include "wmsim/sim.h"

using namespace wmstream;

namespace {

const char kProgram[] = R"(
int n; double a[64]; double b[64];
int main() {
    int i;
    n = 64;
    for (i = 0; i < n; i = i + 1) a[i] = i * 2.0;
    for (i = 0; i < n; i = i + 1) b[i] = a[i] + 1.0;
    return b[63];
}
)";

// The stride walks the store address out of the simulator's memory
// image after a few iterations, so the run faults mid-flight.
const char kFaultingProgram[] = R"(
int a[4];
int main() { int i; for (i = 0; i < 100000; i = i + 1)
                 a[i * 1000000] = i;
             return 0; }
)";

struct SchemaCase
{
    std::string name; ///< emitter under audit (test parameter name)
    std::string json; ///< the document it produced
};

// Print the emitter name only: the default byte dump carries heap
// pointers, which would make the listed test names differ per build.
void
PrintTo(const SchemaCase &c, std::ostream *os)
{
    *os << c.name;
}

/** Produce one document of every kind the toolchain can emit. */
std::vector<SchemaCase>
allDocuments()
{
    std::vector<SchemaCase> cases;
    auto emit = [&cases](const std::string &name, auto &&writer) {
        obs::JsonWriter w;
        writer(w);
        cases.push_back({name, w.str()});
    };

    // WM pipeline: compile + sample + simulate once, reuse everywhere.
    // FIFO-depth inference on, so the fifo_requirements section of
    // the stats/manifest documents is part of the audit.
    driver::CompileOptions wmOpts;
    wmOpts.inferFifoDepth = true;
    auto wm = driver::compileSource(kProgram, wmOpts);
    if (!wm.ok) {
        ADD_FAILURE() << "WM compile failed:\n" << wm.diagnostics;
        return cases;
    }
    obs::TimeSeries ts(wmsim::simTimeSeriesChannels(), 64);
    wmsim::SimConfig cfg;
    cfg.collectOccupancy = true;
    cfg.timeseries = &ts;
    auto res = wmsim::simulate(*wm.program, cfg);
    if (!res.ok) {
        ADD_FAILURE() << "simulation failed: " << res.error;
        return cases;
    }

    emit("remarks", [&](obs::JsonWriter &w) {
        wm.remarks.writeJson(w, "schema.c");
    });
    emit("timeseries", [&](obs::JsonWriter &w) { ts.writeJson(w); });
    emit("wm_stats", [&](obs::JsonWriter &w) {
        report::writeWmStatsDoc(w, "schema.c", wm, cfg, res);
    });

    report::RunManifest man;
    man.toolVersion = "test";
    man.source = "schema.c";
    man.target = "wm";
    man.host.compileWallMs = 1.0;
    man.host.simWallMs = 1.0;
    man.host.simCycles = res.stats.cycles;
    man.compiled = &wm;
    man.simConfig = &cfg;
    man.simResult = &res;
    man.timeseries = &ts;
    emit("run_manifest",
         [&](obs::JsonWriter &w) { man.writeJson(w); });

    // Faulted-run documents.
    auto bad = driver::compileSource(kFaultingProgram, wmOpts);
    if (bad.ok) {
        auto badRes = wmsim::simulate(*bad.program);
        EXPECT_FALSE(badRes.ok);
        emit("wm_fault_stats", [&](obs::JsonWriter &w) {
            report::writeWmFaultDoc(w, "schema.c", badRes);
        });
        emit("fault_report", [&](obs::JsonWriter &w) {
            badRes.faultReport.writeJson(w);
        });
    } else {
        ADD_FAILURE() << "faulting-program compile failed:\n"
                      << bad.diagnostics;
    }

    // Scalar (68020) target.
    driver::CompileOptions scalarOpts;
    scalarOpts.target = rtl::MachineKind::Scalar;
    auto scalar = driver::compileSource(kProgram, scalarOpts);
    if (scalar.ok) {
        auto model = timing::sun3_280Model();
        auto sres = timing::runScalar(*scalar.program, model);
        EXPECT_TRUE(sres.ok) << sres.error;
        emit("scalar_stats", [&](obs::JsonWriter &w) {
            report::writeScalarStatsDoc(w, "schema.c", model.name,
                                        scalar, sres);
        });
    } else {
        ADD_FAILURE() << "scalar compile failed:\n"
                      << scalar.diagnostics;
    }

    // Fuzz-campaign summary (empty campaign is a valid document).
    emit("fuzz_campaign", [&](obs::JsonWriter &w) {
        fuzz::writeCampaignJson(w, fuzz::CampaignOptions{},
                                fuzz::CampaignResult{});
    });

    // Batch compile report (wmc --batch-report).
    serve::TuJob tu;
    tu.id = "schema.c";
    tu.source = kProgram;
    serve::BatchOptions batchOpts;
    batchOpts.base.verify = driver::VerifyMode::Each;
    batchOpts.backoffBaseMs = 0;
    serve::BatchReport batchReport = serve::runBatch({tu}, batchOpts);
    emit("batch_report",
         [&](obs::JsonWriter &w) { batchReport.writeJson(w); });

    // Batch-campaign summary (embeds a batch report).
    emit("batch_campaign", [&](obs::JsonWriter &w) {
        fuzz::BatchCampaignResult empty;
        empty.report = batchReport;
        fuzz::writeBatchCampaignJson(w, fuzz::BatchCampaignOptions{},
                                     empty);
    });

    // Bench harness report (bench/common.h).
    {
        wsbench::JsonReport report;
        report.row("r0").num("cycles", 42.0).sim(res.stats);
        cases.push_back({"bench_report", report.str("schema_test")});
    }

    return cases;
}

class SchemaAudit : public testing::TestWithParam<SchemaCase>
{
};

TEST_P(SchemaAudit, ParsesAsVersionedObject)
{
    const SchemaCase &c = GetParam();
    obs::JsonValue doc;
    std::string err;
    ASSERT_TRUE(obs::parseJson(c.json, doc, err))
        << c.name << ": " << err;
    ASSERT_TRUE(doc.isObject()) << c.name;
    EXPECT_EQ(doc.getInt("schema_version", -1), 1) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllEmitters, SchemaAudit, testing::ValuesIn(allDocuments()),
    [](const testing::TestParamInfo<SchemaCase> &info) {
        return info.param.name;
    });

// The audit must actually cover every emitter: if a document failed
// to build, allDocuments() already ADD_FAILUREd; this pins the count
// so silently dropping an emitter from the list is caught too.
TEST(SchemaAuditCoverage, CoversAllKnownEmitters)
{
    EXPECT_EQ(allDocuments().size(), 11u);
}

} // namespace

