/**
 * @file
 * The benchmark's own seeded inputs.
 *
 * The fuzz workload's program generator and configuration matrix are
 * kept here, in the shape src/fuzz used when the benchmark was
 * defined, rather than called from src/fuzz: a later change to the
 * campaign generator then changes wmfuzz but leaves this workload's
 * inputs (and its recorded digest) alone.
 */

#ifndef WMSTREAM_PERFBENCH_GEN_H
#define WMSTREAM_PERFBENCH_GEN_H

#include <cstdint>
#include <string>
#include <vector>

#include "driver/compiler.h"
#include "support/rng.h"
#include "wmsim/sim.h"

namespace perfbench {

/** Arrays a fuzz program can reference (A, B, C), 48 `int`s each. */
constexpr int kNumArrays = 3;
constexpr int kArraySize = 48;

/** One loop-body statement: dst[i+dstOff] = src1[i+off1] op src2[i+off2]. */
struct StmtSpec
{
    int dst = 0, dstOff = 0;   ///< dstOff in [-2, 2]
    int src1 = 0, off1 = 0;    ///< offsets in [-4, 4]
    int src2 = 0, off2 = 0;
    bool subtract = false;     ///< op: '+' or '-'
    bool conditional = false;  ///< guard with `if ((i & 1) == 0)`
    bool accumulate = false;   ///< follow with `acc = acc + dst[...]`
};

struct ProgramSpec
{
    bool countUp = true;
    std::vector<StmtSpec> stmts;
};

/** Draw a spec with @p numStmts statements (1..3) from @p rng. */
ProgramSpec generateSpec(wmstream::support::Rng &rng, int numStmts);

/** Render @p spec to mini-C; returns a checksum from main(). */
std::string renderProgram(const ProgramSpec &spec);

/** Which Table-II-style cycle total a configuration's runs add to. */
enum class CycleSum : uint8_t { None, Base, Streamed };

struct FuzzConfig
{
    std::string key;
    wmstream::driver::CompileOptions opts;
    wmstream::wmsim::SimConfig simCfg; ///< used when opts.target == WM
    CycleSum cycles = CycleSum::None;
};

/**
 * The seven checks of one fuzz program: WM recurrence × streaming
 * (vectorize and min-trip varied by index), WM unoptimized, and the
 * scalar target with recurrence on and off. All verify after every
 * pass; memory latency and FIFO depth vary with @p programIndex.
 */
std::vector<FuzzConfig> fuzzConfigs(uint64_t programIndex);

/**
 * One function with @p loops sequential streamable loops
 * `c[i] = c[i] + a[i] * b[i]` over global `double` arrays, after an
 * initialization loop, so k + 1 loops stream.
 */
std::string bigTuSource(int loops);

/** FNV-1a over @p s, continuing from @p h. */
uint64_t fnv1a64(const std::string &s, uint64_t h = 0xCBF29CE484222325ull);

} // namespace perfbench

#endif // WMSTREAM_PERFBENCH_GEN_H
