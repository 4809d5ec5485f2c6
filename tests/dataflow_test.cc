/**
 * @file
 * Unit tests for the pooled-bitset dataflow framework (src/dataflow):
 * bitset primitives with tail masking, arena reuse across rounds,
 * gen/kill solver results checked against a brute-force reference on
 * hand-built CFGs, Intersect TOP semantics, convergence counts, and
 * the seeded general solver's edge filter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "dataflow/bitset.h"
#include "dataflow/cfg_index.h"
#include "dataflow/pool.h"
#include "dataflow/solver.h"
#include "rtl/machine.h"

using namespace wmstream;
using namespace wmstream::dataflow;
using namespace wmstream::rtl;

namespace {

ExprPtr
ccReg()
{
    return makeReg(RegFile::CC, 0, DataType::I64);
}

void
pushCc(Block *b)
{
    b->insts.push_back(makeAssign(ccReg(), makeConst(1)));
}

/** entry -> {left, right} -> join -> (return). */
Function
makeDiamond()
{
    Function fn("diamond");
    Block *entry = fn.addBlock("entry");
    Block *left = fn.addBlock("left");
    Block *right = fn.addBlock("right");
    Block *join = fn.addBlock("join");

    pushCc(entry);
    entry->insts.push_back(makeCondJump(UnitSide::Int, true, "right"));
    left->insts.push_back(makeJump("join"));
    right->insts.push_back(makeJump("join"));
    join->insts.push_back(makeReturn());
    fn.recomputeCfg();
    return fn;
}

/** entry -> header <-> latch, header -> exit (a natural loop). */
Function
makeLoop()
{
    Function fn("loop");
    Block *entry = fn.addBlock("entry");
    Block *header = fn.addBlock("header");
    Block *latch = fn.addBlock("latch");
    Block *exit = fn.addBlock("exit");

    entry->insts.push_back(makeJump("header"));
    pushCc(header);
    header->insts.push_back(makeCondJump(UnitSide::Int, true, "exit"));
    latch->insts.push_back(makeJump("header"));
    exit->insts.push_back(makeReturn());
    fn.recomputeCfg();
    return fn;
}

/**
 * Brute-force reference: iterate the gen/kill equations with no
 * worklist or ordering cleverness until nothing changes, on plain
 * std::set<int> states. Any disagreement with BitsetSolver is a
 * solver bug by definition.
 */
struct BruteResult
{
    std::vector<std::set<int>> in, out;
};

BruteResult
bruteForce(const CfgIndex &cfg,
           const std::vector<std::set<int>> &gen,
           const std::vector<std::set<int>> &kill, size_t bits,
           Direction dir, Join join)
{
    size_t n = cfg.size();
    BruteResult r;
    r.in.resize(n);
    r.out.resize(n);
    std::set<int> top;
    for (size_t i = 0; i < bits; ++i)
        top.insert(static_cast<int>(i));
    if (join == Join::Intersect) {
        for (size_t b = 0; b < n; ++b) {
            bool boundary = dir == Direction::Forward
                                ? cfg.preds(b).empty()
                                : cfg.succs(b).empty();
            if (!boundary)
                (dir == Direction::Forward ? r.in : r.out)[b] = top;
        }
    }
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t b = 0; b < n; ++b) {
            const auto &edges = dir == Direction::Forward
                                    ? cfg.preds(b)
                                    : cfg.succs(b);
            std::set<int> &joined =
                (dir == Direction::Forward ? r.in : r.out)[b];
            if (!edges.empty()) {
                std::set<int> acc;
                bool first = true;
                for (size_t e : edges) {
                    const std::set<int> &src =
                        (dir == Direction::Forward ? r.out : r.in)[e];
                    if (first) {
                        acc = src;
                        first = false;
                    } else if (join == Join::Union) {
                        acc.insert(src.begin(), src.end());
                    } else {
                        std::set<int> tmp;
                        std::set_intersection(
                            acc.begin(), acc.end(), src.begin(),
                            src.end(),
                            std::inserter(tmp, tmp.begin()));
                        acc = tmp;
                    }
                }
                if (acc != joined) {
                    joined = acc;
                    changed = true;
                }
            }
            std::set<int> res = gen[b];
            for (int v : joined)
                if (!kill[b].count(v))
                    res.insert(v);
            std::set<int> &result =
                (dir == Direction::Forward ? r.out : r.in)[b];
            if (res != result) {
                result = res;
                changed = true;
            }
        }
    }
    return r;
}

std::set<int>
bitsToSet(const BitsetWord *p, size_t bits)
{
    std::set<int> s;
    bitsetForEach(bitsetWords(bits), p, [&](size_t i) {
        s.insert(static_cast<int>(i));
    });
    return s;
}

/** Run BitsetSolver and the reference on the same problem; compare. */
void
expectParity(Function &fn, const std::vector<std::set<int>> &gen,
             const std::vector<std::set<int>> &kill, size_t bits,
             Direction dir, Join join)
{
    CfgIndex cfg(fn);
    ASSERT_EQ(gen.size(), cfg.size());
    BitsetPool pool;
    BitsetSolver solver(pool, cfg, bits, dir, join);
    for (size_t b = 0; b < cfg.size(); ++b) {
        for (int v : gen[b])
            bitsetSet(solver.gen(b), static_cast<size_t>(v));
        for (int v : kill[b])
            bitsetSet(solver.kill(b), static_cast<size_t>(v));
    }
    solver.solve();
    BruteResult ref = bruteForce(cfg, gen, kill, bits, dir, join);
    for (size_t b = 0; b < cfg.size(); ++b) {
        EXPECT_EQ(bitsToSet(solver.in(b), bits), ref.in[b])
            << "in() of block " << b;
        EXPECT_EQ(bitsToSet(solver.out(b), bits), ref.out[b])
            << "out() of block " << b;
    }
}

} // namespace

// ---- bitset primitives ----

TEST(Bitset, SetTestResetAcrossWordBoundary)
{
    const size_t bits = 130; // three words, partial tail
    std::vector<BitsetWord> v(bitsetWords(bits), 0);
    for (size_t i : {size_t{0}, size_t{63}, size_t{64}, size_t{129}})
        bitsetSet(v.data(), i);
    EXPECT_TRUE(bitsetTest(v.data(), 0));
    EXPECT_TRUE(bitsetTest(v.data(), 63));
    EXPECT_TRUE(bitsetTest(v.data(), 64));
    EXPECT_TRUE(bitsetTest(v.data(), 129));
    EXPECT_FALSE(bitsetTest(v.data(), 1));
    EXPECT_FALSE(bitsetTest(v.data(), 128));
    bitsetReset(v.data(), 64);
    EXPECT_FALSE(bitsetTest(v.data(), 64));
    EXPECT_EQ(bitsetCount(v.size(), v.data()), 3u);
}

TEST(Bitset, SetAllMasksTheTailWord)
{
    const size_t bits = 70;
    std::vector<BitsetWord> v(bitsetWords(bits), 0);
    bitsetSetAll(v.size(), v.data(), bits);
    EXPECT_EQ(bitsetCount(v.size(), v.data()), bits);
    // No bit beyond `bits` may be set, or Intersect TOP states would
    // compare unequal to genuinely-full states.
    EXPECT_FALSE(bitsetTest(v.data(), 70));
    EXPECT_FALSE(bitsetTest(v.data(), 127));
}

TEST(Bitset, OrAndAndNotReportChange)
{
    const size_t bits = 100;
    size_t words = bitsetWords(bits);
    std::vector<BitsetWord> a(words, 0), b(words, 0);
    bitsetSet(a.data(), 3);
    bitsetSet(b.data(), 3);
    bitsetSet(b.data(), 99);
    EXPECT_TRUE(bitsetOr(words, a.data(), b.data()));  // gains 99
    EXPECT_FALSE(bitsetOr(words, a.data(), b.data())); // fixpoint
    EXPECT_TRUE(bitsetEqual(words, a.data(), b.data()));
    bitsetSet(a.data(), 50);
    EXPECT_TRUE(bitsetAnd(words, a.data(), b.data())); // drops 50
    EXPECT_FALSE(bitsetAnd(words, a.data(), b.data()));
    bitsetAndNot(words, a.data(), b.data());
    EXPECT_EQ(bitsetCount(words, a.data()), 0u);
}

TEST(Bitset, ForEachVisitsExactlyTheSetBits)
{
    const size_t bits = 200;
    std::vector<BitsetWord> v(bitsetWords(bits), 0);
    std::set<size_t> expect{0, 1, 63, 64, 65, 127, 128, 199};
    for (size_t i : expect)
        bitsetSet(v.data(), i);
    std::set<size_t> got;
    bitsetForEach(v.size(), v.data(),
                  [&](size_t i) { got.insert(i); });
    EXPECT_EQ(got, expect);
}

// ---- arena pool ----

TEST(BitsetPool, AllocZeroesAndClearRetainsSlabs)
{
    BitsetPool pool;
    BitsetWord *p = pool.alloc(8);
    for (size_t i = 0; i < 8; ++i)
        EXPECT_EQ(p[i], 0u);
    p[0] = ~BitsetWord{0};
    pool.clear();
    // Same arena, rewound: the next alloc re-zeroes the words.
    BitsetWord *q = pool.alloc(8);
    for (size_t i = 0; i < 8; ++i)
        EXPECT_EQ(q[i], 0u);
}

TEST(BitsetPool, SteadyStateRoundsAllocateNoNewChunks)
{
    BitsetPool pool;
    // Warm-up round sizes the arena.
    for (int i = 0; i < 100; ++i)
        pool.alloc(32);
    size_t warm = pool.chunkCount();
    ASSERT_GT(warm, 0u);
    // Ten steady-state rounds of the same shape: chunk count must
    // not grow — this is the no-allocation-per-pass property the
    // framework exists for.
    for (int round = 0; round < 10; ++round) {
        pool.clear();
        for (int i = 0; i < 100; ++i)
            pool.alloc(32);
        EXPECT_EQ(pool.chunkCount(), warm) << "round " << round;
    }
    EXPECT_EQ(pool.allocCount(), 100u * 11u);
}

// ---- CfgIndex ----

TEST(CfgIndex, DiamondOrdersAndEdges)
{
    Function fn = makeDiamond();
    CfgIndex cfg(fn);
    ASSERT_EQ(cfg.size(), 4u);
    size_t entry = cfg.indexOf(fn.findBlock("entry"));
    size_t join = cfg.indexOf(fn.findBlock("join"));
    EXPECT_EQ(cfg.succs(entry).size(), 2u);
    EXPECT_EQ(cfg.preds(join).size(), 2u);
    // RPO starts at the entry; post-order ends there.
    EXPECT_EQ(cfg.rpo().front(), entry);
    EXPECT_EQ(cfg.postOrder().back(), entry);
    // Both orders are permutations of all blocks.
    std::set<size_t> rpo(cfg.rpo().begin(), cfg.rpo().end());
    EXPECT_EQ(rpo.size(), cfg.size());
}

// ---- gen/kill solver vs brute force ----

TEST(Solver, ForwardUnionParityOnDiamond)
{
    Function fn = makeDiamond();
    // "Reaching definitions" shape: defs 0,1 in entry; left kills 0
    // and gens 2; right kills 1 and gens 3.
    std::vector<std::set<int>> gen{{0, 1}, {2}, {3}, {}};
    std::vector<std::set<int>> kill{{}, {0}, {1}, {}};
    expectParity(fn, gen, kill, 5, Direction::Forward, Join::Union);
}

TEST(Solver, BackwardUnionParityOnLoop)
{
    Function fn = makeLoop();
    // "Liveness" shape: uses in the latch keep a bit live around the
    // back edge; the exit uses another.
    std::vector<std::set<int>> gen{{}, {0}, {1}, {2}};
    std::vector<std::set<int>> kill{{1}, {}, {0}, {}};
    expectParity(fn, gen, kill, 3, Direction::Backward, Join::Union);
}

TEST(Solver, ForwardIntersectParityOnDiamond)
{
    Function fn = makeDiamond();
    // "Available copies" shape: only facts valid on BOTH arms
    // survive the join.
    std::vector<std::set<int>> gen{{0, 1}, {2}, {2, 3}, {}};
    std::vector<std::set<int>> kill{{}, {1}, {}, {}};
    expectParity(fn, gen, kill, 4, Direction::Forward,
                 Join::Intersect);
}

TEST(Solver, ForwardIntersectParityOnLoop)
{
    Function fn = makeLoop();
    std::vector<std::set<int>> gen{{0}, {}, {1}, {}};
    std::vector<std::set<int>> kill{{}, {}, {0}, {}};
    expectParity(fn, gen, kill, 2, Direction::Forward,
                 Join::Intersect);
}

TEST(Solver, IntersectInteriorStartsAtTopNotEmpty)
{
    // A fact generated in the entry must flow through the diamond's
    // join: if interior blocks started empty (instead of TOP), the
    // first visit of `join` before both arms settled would lower it
    // to the empty set forever.
    Function fn = makeDiamond();
    CfgIndex cfg(fn);
    BitsetPool pool;
    BitsetSolver solver(pool, cfg, 1, Direction::Forward,
                        Join::Intersect);
    bitsetSet(solver.gen(cfg.indexOf(fn.findBlock("entry"))), 0);
    solver.solve();
    EXPECT_TRUE(bitsetTest(
        solver.in(cfg.indexOf(fn.findBlock("join"))), 0));
}

TEST(Solver, AcyclicForwardConvergesInTwoSweeps)
{
    // RPO scheduling settles an acyclic forward problem in one
    // working sweep plus one no-change sweep; a loop needs one more
    // to carry facts around the back edge.
    Function diamond = makeDiamond();
    CfgIndex cfg(diamond);
    BitsetPool pool;
    BitsetSolver solver(pool, cfg, 4, Direction::Forward, Join::Union);
    bitsetSet(solver.gen(cfg.rpo().front()), 0);
    EXPECT_EQ(solver.solve(), 2u);
    EXPECT_EQ(solver.iterations(), 2u);

    Function loop = makeLoop();
    CfgIndex lcfg(loop);
    BitsetPool lpool;
    BitsetSolver lsolver(lpool, lcfg, 4, Direction::Backward,
                         Join::Union);
    bitsetSet(lsolver.gen(lcfg.indexOf(loop.findBlock("latch"))), 0);
    EXPECT_LE(lsolver.solve(), 3u);
}

// ---- general solver ----

TEST(SolverGeneral, SeededForwardCountsPathsAndFiltersEdges)
{
    Function fn = makeDiamond();
    CfgIndex cfg(fn);
    size_t entry = cfg.indexOf(fn.findBlock("entry"));
    size_t right = cfg.indexOf(fn.findBlock("right"));
    size_t join = cfg.indexOf(fn.findBlock("join"));

    // State = max block-count along any path; join keeps the max.
    auto transfer = [](size_t, int depth) { return depth + 1; };
    auto joinFn = [](int &accum, const int &incoming, size_t) {
        if (incoming > accum) {
            accum = incoming;
            return true;
        }
        return false;
    };
    std::vector<std::pair<size_t, int>> seeds{{entry, 0}};

    auto all = solveGeneralSeeded(
        cfg, Direction::Forward, seeds, transfer, joinFn,
        [](size_t, size_t) { return true; });
    ASSERT_TRUE(all.reached[join]);
    EXPECT_EQ(all.in[join], 2); // entry + one arm

    // Prune every edge into `right`: it must stay unreached (TOP),
    // and the join only sees the left arm.
    auto pruned = solveGeneralSeeded(
        cfg, Direction::Forward, seeds, transfer, joinFn,
        [&](size_t, size_t to) { return to != right; });
    EXPECT_FALSE(pruned.reached[right]);
    ASSERT_TRUE(pruned.reached[join]);
    EXPECT_EQ(pruned.in[join], 2);
}

TEST(SolverGeneral, JoinReceivesTheTargetBlockIndex)
{
    Function fn = makeDiamond();
    CfgIndex cfg(fn);
    size_t entry = cfg.indexOf(fn.findBlock("entry"));
    size_t join = cfg.indexOf(fn.findBlock("join"));
    std::set<size_t> joinedAt;
    auto res = solveGeneralSeeded(
        cfg, Direction::Forward,
        std::vector<std::pair<size_t, int>>{{entry, 0}},
        [](size_t, int s) { return s; },
        [&](int &, const int &, size_t b) {
            joinedAt.insert(b);
            return false;
        },
        [](size_t, size_t) { return true; });
    ASSERT_TRUE(res.reached[join]);
    // Every reached block re-offers its out along each sweep, so the
    // join closure fires at any block with an incoming offer — which
    // is everything except the seed: the entry has no predecessors
    // and must never appear as a join target.
    EXPECT_TRUE(joinedAt.count(join));
    EXPECT_FALSE(joinedAt.count(entry));
}
