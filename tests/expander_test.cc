/**
 * @file
 * Tests for the code expander's output invariants: the contracts every
 * later phase relies on.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "expand/expander.h"
#include "frontend/parser.h"
#include "rtl/machine.h"

using namespace wmstream;
using namespace wmstream::rtl;

namespace {

std::unique_ptr<Program>
expandSrc(const std::string &src, MachineKind kind = MachineKind::WM)
{
    DiagEngine diag;
    auto unit = frontend::parseAndCheck(src, diag);
    EXPECT_TRUE(unit != nullptr) << diag.str();
    auto prog = std::make_unique<Program>();
    obs::RemarkCollector remarks;
    expand::expandUnit(*unit, kind == MachineKind::WM ? wmTraits()
                                                      : scalarTraits(),
                       *prog, remarks);
    return prog;
}

const char *kKitchenSink = R"(
int n = 10;
double d[10];
char msg[6] = "abc";
int scale(int v) { return v * 3; }
int main(void) {
    int i, s;
    double acc;
    acc = 0.0;
    s = 0;
    for (i = 0; i < n; i++) {
        d[i] = i * 0.5;
        acc = acc + d[i];
        s = s + scale(i) + msg[i % 3];
    }
    if (acc > 10.0)
        s = s + 1;
    return s;
}
)";

} // namespace

TEST(Expander, NoMemNodesInsideAssigns)
{
    // The central invariant: all memory traffic is an explicit
    // Load/Store instruction; Mem expression nodes never appear in
    // Assign sources (machine-independent analyses depend on this).
    auto prog = expandSrc(kKitchenSink);
    for (const auto &fn : prog->functions()) {
        for (const auto &b : fn->blocks()) {
            for (const Inst &inst : b->insts) {
                if (inst.kind != InstKind::Assign)
                    continue;
                EXPECT_FALSE(containsMem(inst.src)) << inst.str();
            }
        }
    }
}

TEST(Expander, BranchesOnlyTerminateBlocks)
{
    auto prog = expandSrc(kKitchenSink);
    for (const auto &fn : prog->functions()) {
        for (const auto &b : fn->blocks()) {
            for (size_t i = 0; i + 1 < b->insts.size(); ++i)
                EXPECT_FALSE(b->insts[i].isTerminator())
                    << b->insts[i].str();
        }
    }
}

TEST(Expander, EveryPathEndsInReturn)
{
    auto prog = expandSrc(kKitchenSink);
    for (const auto &fn : prog->functions()) {
        fn->recomputeCfg();
        for (const auto &b : fn->blocks()) {
            if (b->succs.empty()) {
                const Inst *t = b->terminator();
                ASSERT_TRUE(t != nullptr) << fn->name();
                EXPECT_EQ(t->kind, InstKind::Return);
            }
        }
    }
}

TEST(Expander, GlobalsCarryInitializerBytes)
{
    auto prog = expandSrc(kKitchenSink);
    auto *n = prog->findGlobal("n");
    ASSERT_TRUE(n != nullptr);
    ASSERT_GE(n->init.size(), 8u);
    int64_t v;
    std::memcpy(&v, n->init.data(), 8);
    EXPECT_EQ(v, 10);

    auto *msg = prog->findGlobal("msg");
    ASSERT_TRUE(msg != nullptr);
    EXPECT_EQ(msg->size, 6);
    EXPECT_EQ(msg->init[0], 'a');
    EXPECT_EQ(msg->init[3], 0);
}

TEST(Expander, UnaliasedScalarGlobalMarked)
{
    auto prog = expandSrc(kKitchenSink);
    EXPECT_FALSE(prog->findGlobal("n")->mayBeAliased);
    EXPECT_TRUE(prog->findGlobal("d")->mayBeAliased); // array
}

TEST(Expander, FloatConstantsPooledAndDeduplicated)
{
    auto prog = expandSrc(R"(
int main(void) {
    double a, b;
    a = 2.5;
    b = 2.5;   /* same constant: one pool entry */
    return a + b + 7.25;
}
)");
    int poolEntries = 0;
    for (const auto &g : prog->globals()) {
        if (g.name.rfind("__fc", 0) == 0) {
            ++poolEntries;
            EXPECT_TRUE(g.readOnly);
            EXPECT_FALSE(g.mayBeAliased);
        }
    }
    EXPECT_EQ(poolEntries, 2); // 2.5 and 7.25
}

TEST(Expander, ZeroFloatUsesZeroRegister)
{
    auto prog = expandSrc("int main(void) { double d; d = 0.0; "
                          "return d; }");
    // No constant-pool entry for 0.0: f31 is hardwired zero.
    for (const auto &g : prog->globals())
        EXPECT_NE(g.name, "__fc0");
}

TEST(Expander, CallArgumentsUseArgRegisters)
{
    auto prog = expandSrc(R"(
int add3(int a, int b, int c) { return a + b + c; }
int main(void) { return add3(1, 2, 3); }
)");
    Function *fn = prog->findFunction("main");
    bool sawCall = false;
    for (const auto &b : fn->blocks()) {
        for (const Inst &inst : b->insts) {
            if (inst.kind != InstKind::Call)
                continue;
            sawCall = true;
            ASSERT_EQ(inst.extraUses.size(), 3u);
            for (size_t i = 0; i < 3; ++i) {
                EXPECT_EQ(inst.extraUses[i]->regFile(), RegFile::Int);
                EXPECT_EQ(inst.extraUses[i]->regIndex(),
                          2 + static_cast<int>(i));
            }
        }
    }
    EXPECT_TRUE(sawCall);
}

TEST(Expander, RotatedLoopShape)
{
    // for-loops expand to guarded bottom-test form (the paper's
    // Figure 4 structure): a guard compare+branch before the loop and
    // a compare+branch back edge at the bottom.
    auto prog = expandSrc(R"(
int n = 8;
int a[8];
int main(void) {
    int i;
    for (i = 0; i < n; i++)
        a[i] = i;
    return a[7];
}
)");
    Function *fn = prog->findFunction("main");
    fn->recomputeCfg();
    int backEdges = 0;
    for (const auto &b : fn->blocks()) {
        const Inst *t = b->terminator();
        if (t && t->kind == InstKind::CondJump) {
            // a conditional jump whose target appears earlier in layout
            for (const auto &b2 : fn->blocks()) {
                if (b2->label() == t->target) {
                    // is b2 at or before b in layout?
                    for (const auto &b3 : fn->blocks()) {
                        if (b3.get() == b2.get()) {
                            ++backEdges;
                            break;
                        }
                        if (b3.get() == b.get())
                            break;
                    }
                }
            }
        }
    }
    EXPECT_GE(backEdges, 1);
}

TEST(Expander, ShortCircuitProducesBranches)
{
    auto prog = expandSrc(R"(
int main(void) {
    int a, b;
    a = 1;
    b = 0;
    if (a && b)
        return 1;
    if (a || b)
        return 2;
    return 3;
}
)");
    // Multiple conditional branches, one per short-circuit leg.
    Function *fn = prog->findFunction("main");
    int condJumps = 0;
    for (const auto &b : fn->blocks())
        for (const Inst &inst : b->insts)
            if (inst.kind == InstKind::CondJump)
                ++condJumps;
    EXPECT_GE(condJumps, 3);
}

TEST(Expander, ScalarTargetSameShapeDifferentLegality)
{
    auto wm = expandSrc(kKitchenSink, MachineKind::WM);
    auto sc = expandSrc(kKitchenSink, MachineKind::Scalar);
    // Expansion is target-parameterized but the naive code is the
    // same shape; counts match.
    EXPECT_EQ(wm->functions().size(), sc->functions().size());
    for (size_t i = 0; i < wm->functions().size(); ++i) {
        EXPECT_EQ(wm->functions()[i]->instCount(),
                  sc->functions()[i]->instCount());
    }
}
