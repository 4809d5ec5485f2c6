/**
 * @file
 * Heap-allocation budget of a compile.
 *
 * The optimizer reinvokes its phases freely, so any per-instruction
 * temporary it builds is multiplied by the number of reinvocations.
 * This binary replaces the global operator new with one that counts
 * calls and forwards to malloc (so it also runs under AddressSanitizer)
 * and compiles one function with k streamable loops (stream_loops.h)
 * at k = 16 and k = 48. It pins
 * the number of allocations of the large compile and how fast that
 * number grows with k. It also pins the allocations of whetstone on
 * WM, whose register allocation spills through 35 coloring attempts
 * of one function: a per-attempt temporary is multiplied by those.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "driver/compiler.h"
#include "programs/programs.h"
#include "stream_loops.h"

namespace {

std::atomic<uint64_t> gAllocs{0};

} // anonymous namespace

void *
operator new(size_t n)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

// Every form the library may pair with the delete below goes through
// malloc, or a sanitizer would see its own new freed by free().
void *
operator new[](size_t n)
{
    return operator new(n);
}

void *
operator new(size_t n, const std::nothrow_t &) noexcept
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void *
operator new[](size_t n, const std::nothrow_t &tag) noexcept
{
    return operator new(n, tag);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace {

using namespace wmstream;

/** Allocations made by one default compile of @p loops loops. */
uint64_t
compileAllocs(int loops)
{
    std::string src = streamLoopsSource(loops);
    uint64_t before = gAllocs.load();
    driver::CompileResult cr = driver::compile({"alloc", src, {}});
    uint64_t n = gAllocs.load() - before;

    EXPECT_TRUE(cr.ok) << cr.diagnostics;
    int streamed = 0;
    for (const auto &sr : cr.streamingReports)
        streamed += sr.loopsStreamed;
    EXPECT_EQ(streamed, loops + 1) << "k = " << loops;
    return n;
}

TEST(CompileAllocations, LargeFunctionWithinBudget)
{
    compileAllocs(4); // warm up one-time static state
    uint64_t l48 = compileAllocs(48);
    // 41k when this was written; 4.40 M before def/use queries stopped
    // allocating and combine and lower-fifo stopped recounting.
    EXPECT_LE(l48, 350000u);
}

TEST(CompileAllocations, GrowthWithLoopCountNearLinear)
{
    compileAllocs(4);
    uint64_t l16 = compileAllocs(16);
    uint64_t l48 = compileAllocs(48);
    double ratio = static_cast<double>(l48) / static_cast<double>(l16);
    // Measured 2.77 for 3x the loops; the ceiling is 1.1x that. It
    // was 7.5 while combine recounted the function after every fold.
    EXPECT_LT(ratio, 3.04) << l48 << " / " << l16;
}

TEST(CompileAllocations, SpillingCompileWithinBudget)
{
    compileAllocs(4);
    const std::string &src = programs::programSource("whetstone");
    uint64_t before = gAllocs.load();
    driver::CompileResult cr = driver::compile({"whetstone", src, {}});
    uint64_t n = gAllocs.load() - before;
    ASSERT_TRUE(cr.ok) << cr.diagnostics;
    // 13.0k when this was written; 304k while each attempt built its
    // interference graph from hash sets.
    EXPECT_LE(n, 30000u) << n;
}

} // anonymous namespace
