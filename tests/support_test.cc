/**
 * @file
 * Tests for the support utilities: strings, diagnostics, the seeded
 * splittable PRNG, and the thread pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "support/diag.h"
#include "support/ring.h"
#include "support/rng.h"
#include "support/str.h"
#include "support/thread_pool.h"

using namespace wmstream;

TEST(Str, Split)
{
    auto parts = splitString("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
    EXPECT_EQ(splitString("", ',').size(), 1u);
}

TEST(Str, Trim)
{
    EXPECT_EQ(trimString("  hi \t\n"), "hi");
    EXPECT_EQ(trimString("hi"), "hi");
    EXPECT_EQ(trimString("   "), "");
    EXPECT_EQ(trimString(""), "");
}

TEST(Str, StartsWith)
{
    EXPECT_TRUE(startsWith("streaming", "stream"));
    EXPECT_FALSE(startsWith("stream", "streaming"));
    EXPECT_TRUE(startsWith("x", ""));
}

TEST(Str, Format)
{
    EXPECT_EQ(strFormat("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(strFormat("%s", ""), "");
    // long outputs are not truncated
    std::string big(300, 'a');
    EXPECT_EQ(strFormat("%s!", big.c_str()).size(), 301u);
}

TEST(Diag, CollectsAndCounts)
{
    DiagEngine diag;
    EXPECT_FALSE(diag.hasErrors());
    diag.warning({1, 2}, "w");
    EXPECT_FALSE(diag.hasErrors());
    diag.error({3, 4}, "e");
    diag.note({3, 5}, "n");
    EXPECT_TRUE(diag.hasErrors());
    EXPECT_EQ(diag.errorCount(), 1);
    ASSERT_EQ(diag.messages().size(), 3u);
    EXPECT_NE(diag.str().find("error at 3:4: e"), std::string::npos);
    EXPECT_NE(diag.str().find("warning at 1:2: w"), std::string::npos);
}

TEST(Diag, PositionRendering)
{
    SourcePos p{7, 12};
    EXPECT_EQ(p.str(), "7:12");
    EXPECT_TRUE(p.valid());
    EXPECT_FALSE(SourcePos{}.valid());
}

TEST(Ring, WrapsAroundAndGrowsInOrder)
{
    support::Ring<int> q;
    q.reserve(3); // rounded up to 4
    int next = 0, expect = 0;
    // Keep two elements live while the indices wrap several times.
    for (int k = 0; k < 10; ++k) {
        q.push_back(next++);
        if (q.size() > 2) {
            EXPECT_EQ(q.front(), expect++);
            q.pop_front();
        }
    }
    ASSERT_EQ(q.size(), 2u);
    EXPECT_EQ(q[0], 8);
    EXPECT_EQ(q[1], 9);
    // Filling past the capacity doubles it without reordering, also
    // when the live elements straddle the end of the array.
    for (int k = 0; k < 7; ++k)
        q.push_back(next++);
    std::vector<int> seen;
    for (int v : q)
        seen.push_back(v);
    EXPECT_EQ(seen, (std::vector<int>{8, 9, 10, 11, 12, 13, 14, 15, 16}));
    q.clear();
    EXPECT_TRUE(q.empty());
    q.push_back(42);
    EXPECT_EQ(q.front(), 42);
}

TEST(Rng, DeterministicAndSeedSensitive)
{
    support::Rng a(5), b(5), c(6);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    support::Rng a2(5);
    for (int i = 0; i < 64; ++i)
        differs |= a2.next() != c.next();
    EXPECT_TRUE(differs);
    // A zero seed must not produce a stuck generator.
    support::Rng z(0);
    EXPECT_NE(z.next(), z.next());
}

TEST(Rng, RangeIsInclusiveAndCoversEndpoints)
{
    support::Rng rng(1);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        int v = rng.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        sawLo |= v == -3;
        sawHi |= v == 3;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
    EXPECT_EQ(rng.range(4, 4), 4); // degenerate single-value range
}

TEST(Rng, NextBelowIsUnbiased)
{
    // With a bound just above a power of two, naive modulo sampling
    // visibly over-weights small values (the old loopfuzz Rng bug);
    // Lemire rejection keeps every bucket within a few percent.
    support::Rng rng(99);
    constexpr uint64_t kBound = 3;
    constexpr int kDraws = 30000;
    int counts[kBound] = {0, 0, 0};
    for (int i = 0; i < kDraws; ++i)
        ++counts[rng.nextBelow(kBound)];
    for (uint64_t v = 0; v < kBound; ++v) {
        EXPECT_GT(counts[v], kDraws / 3 - kDraws / 20) << v;
        EXPECT_LT(counts[v], kDraws / 3 + kDraws / 20) << v;
    }
}

TEST(Rng, SplitIsStableAndIndependent)
{
    support::Rng root(7);
    support::Rng c1 = root.split(1);
    support::Rng c1again = root.split(1);
    support::Rng c2 = root.split(2);
    EXPECT_EQ(c1.next(), c1again.next());   // pure in (seed, id)
    support::Rng c1b = root.split(1);
    EXPECT_NE(c1b.next(), c2.next());       // distinct streams
    // Splitting does not advance the parent.
    support::Rng fresh(7);
    EXPECT_EQ(root.next(), fresh.next());
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce)
{
    support::ThreadPool pool(4);
    constexpr int64_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    support::parallelFor(pool, kN, [&](int64_t i) {
        hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (int64_t i = 0; i < kN; ++i)
        ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << i;
}

TEST(ThreadPool, SubmitAndWaitDrainsAllTasks)
{
    support::ThreadPool pool(3);
    EXPECT_EQ(pool.numThreads(), 3);
    std::atomic<int> done{0};
    for (int i = 0; i < 50; ++i)
        pool.submit([&] { done.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPool, ParallelForHandlesZeroAndSingleThread)
{
    support::ThreadPool pool(1);
    std::atomic<int> count{0};
    support::parallelFor(pool, 0, [&](int64_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 0);
    support::parallelFor(pool, 7, [&](int64_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 7);
}

TEST(ThreadPool, CancelPendingDropsOnlyUnstartedJobs)
{
    // The serve --fail-fast abort path: occupy every worker with a
    // gated job, queue more work behind them, cancel, then release
    // the gates. The cancelled jobs must never run, the in-flight
    // ones must finish normally, and accounting must be exact:
    // executed + dropped == submitted.
    constexpr int kWorkers = 2;
    constexpr int kQueued = 40;
    support::ThreadPool pool(kWorkers);

    auto state = std::make_shared<std::atomic<int>>(0);
    std::mutex gateMu;
    std::condition_variable gateCv;
    bool gateOpen = false;
    std::atomic<int> parked{0};

    for (int i = 0; i < kWorkers; ++i)
        pool.submit([&, state] {
            parked.fetch_add(1);
            std::unique_lock<std::mutex> lock(gateMu);
            gateCv.wait(lock, [&] { return gateOpen; });
            state->fetch_add(1);
        });
    // Wait until both workers are provably inside the gated jobs, so
    // every job below is queued-but-unstarted when we cancel.
    while (parked.load() < kWorkers)
        std::this_thread::yield();
    for (int i = 0; i < kQueued; ++i)
        pool.submit([state] { state->fetch_add(1); });

    size_t dropped = pool.cancelPending();
    {
        std::lock_guard<std::mutex> lock(gateMu);
        gateOpen = true;
    }
    gateCv.notify_all();
    pool.wait();

    EXPECT_EQ(dropped, static_cast<size_t>(kQueued));
    EXPECT_EQ(state->load(), kWorkers);

    // The pool stays usable after an abort: drain-or-cancel, not
    // poison.
    pool.submit([state] { state->fetch_add(1); });
    pool.wait();
    EXPECT_EQ(state->load(), kWorkers + 1);
}

TEST(ThreadPool, CancelPendingOnIdlePoolIsANoOp)
{
    support::ThreadPool pool(2);
    EXPECT_EQ(pool.cancelPending(), 0u);
    std::atomic<int> ran{0};
    pool.submit([&] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
}
