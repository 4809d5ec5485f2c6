#include "perfbench/heap.h"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<size_t> gLive{0};
std::atomic<size_t> gPeak{0};

} // anonymous namespace

void *
operator new(size_t n)
{
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    size_t size = malloc_usable_size(p);
    size_t live = gLive.fetch_add(size, std::memory_order_relaxed) + size;
    size_t peak = gPeak.load(std::memory_order_relaxed);
    while (live > peak &&
           !gPeak.compare_exchange_weak(peak, live, std::memory_order_relaxed))
    {
    }
    return p;
}

void
operator delete(void *p) noexcept
{
    if (!p)
        return;
    gLive.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
    std::free(p);
}

void
operator delete(void *p, size_t) noexcept
{
    operator delete(p);
}

namespace perfbench {

double
peakHeapMb()
{
    return static_cast<double>(gPeak.load()) / (1024.0 * 1024.0);
}

} // namespace perfbench
