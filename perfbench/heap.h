/**
 * @file
 * Peak live heap of the benchmark process.
 *
 * The benchmark replaces the global operator new and delete to track
 * the bytes live at once. Peak resident set size is not used: glibc's
 * heap fragments differently for different generated programs, so the
 * same code reads 21 MB for one fuzz seed and 37 MB for the next.
 */

#ifndef WMSTREAM_PERFBENCH_HEAP_H
#define WMSTREAM_PERFBENCH_HEAP_H

namespace perfbench {

/** Most bytes ever live through operator new, in MiB. */
double peakHeapMb();

} // namespace perfbench

#endif // WMSTREAM_PERFBENCH_HEAP_H
