/**
 * @file
 * Tests for the optimization-remarks subsystem: exact reason codes for
 * each streaming/recurrence rejection path, applied remarks with
 * correct source locations, the loop-id registry, the JSON
 * serialization, and the remark/cycle join invariant (per-loop cycle
 * buckets sum exactly to total simulated cycles).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "driver/compiler.h"
#include "obs/json_parse.h"
#include "obs/remarks.h"
#include "wmsim/sim.h"

using namespace wmstream;

namespace {

driver::CompileResult
compile(const std::string &src, driver::CompileOptions opts = {})
{
    auto cr = driver::compileSource(src, opts);
    EXPECT_TRUE(cr.ok) << cr.diagnostics;
    return cr;
}

/** 1-based line of the first occurrence of @p needle in @p src. */
int
lineOf(const std::string &src, const std::string &needle)
{
    size_t pos = src.find(needle);
    EXPECT_NE(pos, std::string::npos) << needle;
    if (pos == std::string::npos)
        return -1;
    return 1 + static_cast<int>(
                   std::count(src.begin(),
                              src.begin() + static_cast<long>(pos), '\n'));
}

const obs::RemarkArg *
findArg(const obs::Remark &r, const std::string &name)
{
    for (const auto &a : r.args)
        if (a.name == name)
            return &a;
    return nullptr;
}

} // namespace

TEST(Remarks, TripCountTooSmall)
{
    const std::string src = R"(
double a[3];
double b[3];
int main(void) {
    int i;
    for (i = 0; i < 3; i++)
        b[i] = a[i];
    return b[0];
}
)";
    auto cr = compile(src);
    auto missed = cr.remarks.byReason("trip-count-too-small");
    ASSERT_EQ(missed.size(), 1u);
    const obs::Remark &r = *missed[0];
    EXPECT_EQ(r.pass, "streaming");
    EXPECT_EQ(r.verdict, obs::RemarkVerdict::Missed);
    EXPECT_EQ(r.function, "main");
    EXPECT_EQ(r.loc.line, lineOf(src, "for (i"));
    ASSERT_NE(findArg(r, "trip_count"), nullptr);
    EXPECT_EQ(findArg(r, "trip_count")->value, "3");
    ASSERT_NE(findArg(r, "min_trip_count"), nullptr);
    EXPECT_EQ(findArg(r, "min_trip_count")->value, "4");
    EXPECT_GE(r.loopId, 0);
    ASSERT_NE(cr.remarks.findLoop(r.loopId), nullptr);

    // The loop did not stream.
    EXPECT_EQ(cr.remarks.byReason("loop-streamed").size(), 0u);
}

TEST(Remarks, MemoryRecurrenceRemains)
{
    // With the recurrence optimizer disabled the a[i-1]/a[i] chain
    // stays in memory, so streaming must refuse the whole loop.
    const std::string src = R"(
int n = 100;
double a[100];
double b[100];
int main(void) {
    int i;
    for (i = 1; i < n; i++)
        a[i] = a[i - 1] + b[i];
    return a[99];
}
)";
    driver::CompileOptions opts;
    opts.recurrence = false;
    auto cr = compile(src, opts);
    auto missed = cr.remarks.byReason("memory-recurrence-remains");
    ASSERT_GE(missed.size(), 1u);
    EXPECT_EQ(missed[0]->pass, "streaming");
    EXPECT_EQ(missed[0]->verdict, obs::RemarkVerdict::Missed);
    EXPECT_EQ(missed[0]->loc.line, lineOf(src, "a[i] ="));
    ASSERT_NE(findArg(*missed[0], "partition"), nullptr);
    EXPECT_EQ(findArg(*missed[0], "partition")->value, "_a");
    // Only the recurrence partition is excluded — the independent b[i]
    // load still streams, but nothing from a[] does (no out-streams).
    for (const obs::Remark *r : cr.remarks.byReason("loop-streamed")) {
        ASSERT_NE(findArg(*r, "streams_out"), nullptr);
        EXPECT_EQ(findArg(*r, "streams_out")->value, "0");
    }
}

TEST(Remarks, RecurrenceOptimizedAndThenStreamed)
{
    // Same kernel with the recurrence optimizer on: the chain moves
    // into registers (applied recurrence remark) and the remaining
    // b[i] load plus the a[] store stream (applied streaming remark).
    const std::string src = R"(
int n = 100;
double a[100];
double b[100];
int main(void) {
    int i;
    for (i = 1; i < n; i++)
        a[i] = a[i - 1] + b[i];
    return a[99];
}
)";
    auto cr = compile(src);
    auto rec = cr.remarks.byReason("recurrence-optimized");
    ASSERT_GE(rec.size(), 1u);
    EXPECT_EQ(rec[0]->pass, "recurrence");
    EXPECT_EQ(rec[0]->verdict, obs::RemarkVerdict::Applied);
    EXPECT_EQ(rec[0]->loc.line, lineOf(src, "a[i] ="));
    ASSERT_NE(findArg(*rec[0], "degree"), nullptr);
    EXPECT_EQ(findArg(*rec[0], "degree")->value, "1");

    auto streamed = cr.remarks.byReason("loop-streamed");
    ASSERT_GE(streamed.size(), 1u);
    // Both passes talk about the same registry loop id.
    EXPECT_EQ(rec[0]->loopId, streamed[0]->loopId);
}

TEST(Remarks, NotEveryIteration)
{
    // The guarded store does not execute every iteration, so it cannot
    // become a stream (the SCU would run ahead of the guard).
    const std::string src = R"(
int n = 100;
int a[100];
int main(void) {
    int i;
    for (i = 0; i < n; i++)
        if (i & 1)
            a[i] = i;
    return a[99];
}
)";
    auto cr = compile(src);
    auto missed = cr.remarks.byReason("not-every-iteration");
    ASSERT_GE(missed.size(), 1u);
    EXPECT_EQ(missed[0]->pass, "streaming");
    EXPECT_EQ(missed[0]->verdict, obs::RemarkVerdict::Missed);
}

TEST(Remarks, NoFifoAvailable)
{
    // Three integer input streams compete for the two integer input
    // FIFOs; one candidate must be dropped with no-fifo-available.
    const std::string src = R"(
int n = 100;
int a[100];
int b[100];
int c[100];
int main(void) {
    int i;
    int s;
    s = 0;
    for (i = 0; i < n; i++)
        s = s + a[i] + b[i] + c[i];
    return s;
}
)";
    auto cr = compile(src);
    auto missed = cr.remarks.byReason("no-fifo-available");
    // Two references lose out: one at allocation (only two input FIFOs
    // per side) and one more to the conservative fifo-0 eviction — the
    // leftover scalar load needs FIFO 0 for its own reply data.
    ASSERT_GE(missed.size(), 2u);
    for (const obs::Remark *r : missed) {
        EXPECT_EQ(r->pass, "streaming");
        EXPECT_EQ(r->verdict, obs::RemarkVerdict::Missed);
        ASSERT_NE(findArg(*r, "side"), nullptr);
        EXPECT_EQ(findArg(*r, "side")->value, "int");
        ASSERT_NE(findArg(*r, "direction"), nullptr);
        EXPECT_EQ(findArg(*r, "direction")->value, "in");
    }
    // The surviving candidate still streams (on FIFO 1).
    auto applied = cr.remarks.byReason("streamed");
    ASSERT_GE(applied.size(), 1u);
}

TEST(Remarks, AppliedStreamedCarriesLocation)
{
    const std::string src = R"(
int n = 100;
double a[100];
double b[100];
double c[100];
int main(void) {
    int i;
    for (i = 0; i < n; i++)
        c[i] = a[i] + b[i];
    return c[99];
}
)";
    auto cr = compile(src);
    auto applied = cr.remarks.byReason("streamed");
    ASSERT_GE(applied.size(), 3u); // a in, b in, c out
    int bodyLine = lineOf(src, "c[i] =");
    for (const obs::Remark *r : applied) {
        EXPECT_EQ(r->pass, "streaming");
        EXPECT_EQ(r->verdict, obs::RemarkVerdict::Applied);
        EXPECT_EQ(r->loc.line, bodyLine);
        EXPECT_NE(findArg(*r, "fifo"), nullptr);
        EXPECT_NE(findArg(*r, "stride"), nullptr);
    }
    auto loop = cr.remarks.byReason("loop-streamed");
    ASSERT_EQ(loop.size(), 1u);
    EXPECT_EQ(loop[0]->loc.line, lineOf(src, "for (i"));
    ASSERT_NE(findArg(*loop[0], "streams_in"), nullptr);
    EXPECT_EQ(findArg(*loop[0], "streams_in")->value, "2");
    ASSERT_NE(findArg(*loop[0], "streams_out"), nullptr);
    EXPECT_EQ(findArg(*loop[0], "streams_out")->value, "1");
}

TEST(Remarks, JsonSerializationJoinsWithRegistry)
{
    const std::string src = R"(
double a[3];
int main(void) {
    int i;
    for (i = 0; i < 3; i++)
        a[i] = i;
    return a[2];
}
)";
    auto cr = compile(src);
    obs::JsonWriter w;
    cr.remarks.writeJson(w, "t.c");
    obs::JsonValue doc;
    std::string err;
    ASSERT_TRUE(obs::parseJson(w.str(), doc, err)) << err;
    EXPECT_EQ(doc.getInt("schema_version"), 1);
    EXPECT_EQ(doc.getStr("file"), "t.c");

    const obs::JsonValue *loops = doc.get("loops");
    ASSERT_NE(loops, nullptr);
    ASSERT_TRUE(loops->isArray());
    ASSERT_GE(loops->arr.size(), 1u);
    const obs::JsonValue *remarks = doc.get("remarks");
    ASSERT_NE(remarks, nullptr);
    ASSERT_TRUE(remarks->isArray());
    ASSERT_GE(remarks->arr.size(), 1u);

    // Every remark's loop id resolves in the loops table (or is -1).
    for (const obs::JsonValue &r : remarks->arr) {
        int64_t id = r.getInt("loop", -1);
        if (id < 0)
            continue;
        bool found = false;
        for (const obs::JsonValue &l : loops->arr)
            found = found || l.getInt("id", -2) == id;
        EXPECT_TRUE(found) << "remark references unknown loop " << id;
    }
}

TEST(Remarks, LoopCyclesSumToTotal)
{
    // The attribution invariant behind wmreport: every simulated cycle
    // lands in exactly one loop bucket, so the buckets sum to the
    // total (and the streamed loop's id appears among them).
    const std::string src = R"(
int n = 50;
double a[50];
double b[50];
double c[50];
int main(void) {
    int i;
    int j;
    for (j = 0; j < n; j++) {
        a[j] = 1.0 + j;
        b[j] = 2.0 + j;
    }
    for (i = 0; i < n; i++)
        c[i] = a[i] + b[i];
    return c[49];
}
)";
    auto cr = compile(src);
    auto res = wmsim::simulate(*cr.program);
    ASSERT_TRUE(res.ok) << res.error;
    uint64_t sum = 0;
    bool sawRealLoop = false;
    for (const auto &lb : res.stats.loops) {
        sum += lb.cycles;
        if (lb.loopId >= 0 && lb.cycles > 0)
            sawRealLoop = true;
        EXPECT_NE(cr.remarks.findLoop(lb.loopId) == nullptr,
                  lb.loopId >= 0)
            << "bucket loop id " << lb.loopId
            << " not in the remark registry";
    }
    EXPECT_EQ(sum, res.stats.cycles);
    EXPECT_TRUE(sawRealLoop);

    // Streamed-loop remarks reference ids that got cycle buckets.
    for (const obs::Remark *r : cr.remarks.byReason("loop-streamed")) {
        bool found = false;
        for (const auto &lb : res.stats.loops)
            found = found || lb.loopId == r->loopId;
        EXPECT_TRUE(found) << "no cycles attributed to streamed loop "
                           << r->loopId;
    }
}

TEST(Remarks, CollectorDeduplicatesAndUpgradesLoc)
{
    obs::RemarkCollector rc;
    int id = rc.loopId("main", "L1");
    EXPECT_EQ(rc.loopId("main", "L1"), id);
    EXPECT_FALSE(rc.findLoop(id)->loc.valid());
    // A later registration with a position upgrades the record.
    EXPECT_EQ(rc.loopId("main", "L1", {7, 3}), id);
    EXPECT_EQ(rc.findLoop(id)->loc.line, 7);
    // Different function, same header label: a different loop.
    EXPECT_NE(rc.loopId("f", "L1"), id);

    obs::Remark r;
    r.pass = "streaming";
    r.function = "main";
    r.loopId = id;
    r.reason = "zero-stride";
    r.arg("partition", "a");
    rc.add(r);
    rc.add(r); // exact duplicate: dropped
    EXPECT_EQ(rc.remarks().size(), 1u);
    r.arg("extra", static_cast<int64_t>(1));
    rc.add(r); // different args: kept
    EXPECT_EQ(rc.remarks().size(), 2u);
}

TEST(Remarks, CleanupCapHitIsLoud)
{
    // Each level of this chain of common subexpressions sits in its own
    // block. Value propagation turns u_n into a copy of t_n, but the
    // copies reaching a block are solved before the walk, so u_n reads
    // as t_n in the next block only one cleanup round later: one round
    // per level. Six levels outrun the four-round cap, and the compile
    // says so.
    const std::string src = R"(
int a = 3;
int b = 4;
int c = 5;
int main(void) {
    int x, y, z, g, t1, u1, t2, u2, t3, u3, t4, u4, t5, u5, t6, u6;
    x = a; y = b; z = c; g = 0;
    t1 = x + y; u1 = x + y;
    if (x < y) g = 1;
    t2 = t1 * z; u2 = u1 * z;
    if (x < y) g = 2;
    t3 = t2 * z; u3 = u2 * z;
    if (x < y) g = 3;
    t4 = t3 * z; u4 = u3 * z;
    if (x < y) g = 4;
    t5 = t4 * z; u5 = u4 * z;
    if (x < y) g = 5;
    t6 = t5 * z; u6 = u5 * z;
    return t1 + u1 + t2 + u2 + t3 + u3 + t4 + u4 + t5 + u5 + t6 + u6 + g;
}
)";
    for (rtl::MachineKind target :
         {rtl::MachineKind::WM, rtl::MachineKind::Scalar}) {
        driver::CompileOptions opts;
        opts.target = target;
        auto cr = compile(src, opts);
        auto hits = cr.remarks.byReason("fixpoint-cap-hit");
        ASSERT_EQ(hits.size(), 1u);
        const obs::Remark &r = *hits[0];
        EXPECT_EQ(r.pass, "cleanup");
        EXPECT_EQ(r.function, "main");
        EXPECT_EQ(r.verdict, obs::RemarkVerdict::Missed);
        ASSERT_EQ(r.args.size(), 2u);
        EXPECT_EQ(r.args[0].name, "cap");
        EXPECT_EQ(r.args[0].value, "4");
        EXPECT_EQ(r.args[1].name, "after_pass");
        EXPECT_EQ(r.args[1].value, "cleanup");
    }
    // The code is still right, only less clean than it could be.
    auto res = wmsim::simulate(*compile(src).program);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.returnValue,
              2 * (7 + 35 + 175 + 875 + 4375 + 21875) + 5);

    // A compile that converges carries no such remark.
    EXPECT_TRUE(compile("int main(void) { return 1; }")
                    .remarks.byReason("fixpoint-cap-hit")
                    .empty());
}

TEST(Remarks, StraightLineCseChainConverges)
{
    // The same chain in one block: each repeated level becomes a copy
    // that the rest of the block reads through at once, so value
    // propagation collapses the whole chain in one walk.
    const std::string src = R"(
int a = 3;
int b = 4;
int c = 5;
int main(void) {
    int x, y, z, t1, u1, t2, u2, t3, u3, t4, u4, t5, u5, t6, u6;
    x = a; y = b; z = c;
    t1 = x + y; u1 = x + y;
    t2 = t1 * z; u2 = u1 * z;
    t3 = t2 * z; u3 = u2 * z;
    t4 = t3 * z; u4 = u3 * z;
    t5 = t4 * z; u5 = u4 * z;
    t6 = t5 * z; u6 = u5 * z;
    return t1 + u1 + t2 + u2 + t3 + u3 + t4 + u4 + t5 + u5 + t6 + u6;
}
)";
    for (rtl::MachineKind target :
         {rtl::MachineKind::WM, rtl::MachineKind::Scalar}) {
        driver::CompileOptions opts;
        opts.target = target;
        EXPECT_TRUE(compile(src, opts)
                        .remarks.byReason("fixpoint-cap-hit")
                        .empty());
    }
    auto res = wmsim::simulate(*compile(src).program);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.returnValue, 2 * (7 + 35 + 175 + 875 + 4375 + 21875));
}
