/**
 * @file
 * Semantics tests for the reference interpreter — the oracle the
 * compiled configurations are checked against, so its own behaviour is
 * pinned down here.
 */

#include <gtest/gtest.h>

#include "deep_recursion.h"
#include "frontend/parser.h"
#include "interp/interp.h"
#include "rtl/image.h"

using namespace wmstream;

namespace {

int64_t
run(const std::string &src)
{
    DiagEngine diag;
    auto unit = frontend::parseAndCheck(src, diag);
    EXPECT_TRUE(unit != nullptr) << diag.str();
    if (!unit)
        return INT64_MIN;
    interp::Interpreter in(*unit);
    auto res = in.run();
    EXPECT_TRUE(res.ok) << res.error;
    return res.returnValue;
}

std::string
runError(const std::string &src)
{
    DiagEngine diag;
    auto unit = frontend::parseAndCheck(src, diag);
    EXPECT_TRUE(unit != nullptr) << diag.str();
    interp::Interpreter in(*unit);
    auto res = in.run();
    EXPECT_FALSE(res.ok);
    return res.error;
}

} // namespace

TEST(Interp, IntegerArithmetic)
{
    EXPECT_EQ(run("int main(void) { return 7 + 3 * 4 - 6 / 2; }"), 16);
    EXPECT_EQ(run("int main(void) { return 17 % 5; }"), 2);
    EXPECT_EQ(run("int main(void) { return -5 + 2; }"), -3);
    EXPECT_EQ(run("int main(void) { return 1 << 10; }"), 1024);
    EXPECT_EQ(run("int main(void) { return 1024 >> 3; }"), 128);
    EXPECT_EQ(run("int main(void) { return (12 & 10) | (1 ^ 3); }"), 10);
    EXPECT_EQ(run("int main(void) { return ~0; }"), -1);
}

TEST(Interp, Comparisons)
{
    EXPECT_EQ(run("int main(void) { return (1 < 2) + (2 <= 2) + (3 > 2) "
                  "+ (2 >= 3) + (1 == 1) + (1 != 1); }"),
              4);
}

TEST(Interp, DoubleArithmeticAndConversion)
{
    EXPECT_EQ(run("int main(void) { double d; d = 2.5 * 4.0; return d; }"),
              10);
    EXPECT_EQ(run("int main(void) { double d; d = 7; return d / 2.0; }"),
              3); // 3.5 truncates
    EXPECT_EQ(run("int main(void) { int i; i = 3.99; return i; }"), 3);
}

TEST(Interp, ShortCircuitEvaluation)
{
    // The right side of && must not evaluate when the left is false:
    // division by zero would error out.
    EXPECT_EQ(run("int main(void) { int z; z = 0; "
                  "return z != 0 && 10 / z > 0; }"),
              0);
    EXPECT_EQ(run("int main(void) { int z; z = 0; "
                  "return z == 0 || 10 / z > 0; }"),
              1);
}

TEST(Interp, ConditionalExpression)
{
    EXPECT_EQ(run("int main(void) { int a; a = 5; "
                  "return a > 3 ? a * 2 : a - 1; }"),
              10);
}

TEST(Interp, WhileAndDoWhile)
{
    EXPECT_EQ(run(R"(
int main(void) {
    int i, s;
    i = 0; s = 0;
    while (i < 5) { s = s + i; i = i + 1; }
    do { s = s + 100; } while (s < 0);
    return s;
})"),
              110);
}

TEST(Interp, BreakAndContinue)
{
    EXPECT_EQ(run(R"(
int main(void) {
    int i, s;
    s = 0;
    for (i = 0; i < 10; i++) {
        if (i == 3)
            continue;
        if (i == 6)
            break;
        s = s + i;
    }
    return s;
})"),
              0 + 1 + 2 + 4 + 5);
}

TEST(Interp, GlobalArraysAndInitializers)
{
    EXPECT_EQ(run(R"(
int a[5] = {10, 20, 30};
int main(void) { return a[0] + a[1] + a[2] + a[3] + a[4]; }
)"),
              60); // trailing elements zero
}

TEST(Interp, TwoDimensionalArrays)
{
    EXPECT_EQ(run(R"(
int g[3][4];
int main(void) {
    int r, c, s;
    for (r = 0; r < 3; r++)
        for (c = 0; c < 4; c++)
            g[r][c] = r * 10 + c;
    s = 0;
    for (r = 0; r < 3; r++)
        s = s + g[r][3];
    return s;
})"),
              3 + 13 + 23);
}

TEST(Interp, CharArraysTruncateAndZeroExtend)
{
    EXPECT_EQ(run(R"(
char c[4];
int main(void) {
    c[0] = 300;   /* truncates to 44 */
    c[1] = -1;    /* truncates to 255, loads back unsigned */
    return c[0] + c[1];
})"),
              44 + 255);
}

TEST(Interp, StringsInPool)
{
    EXPECT_EQ(run(R"(
int main(void) {
    char *s;
    int n;
    s = "abc";
    n = 0;
    while (s[n])
        n = n + 1;
    return n + s[0];
})"),
              3 + 'a');
}

TEST(Interp, PointerArithmeticAndDeref)
{
    EXPECT_EQ(run(R"(
int a[4] = {5, 6, 7, 8};
int main(void) {
    int *p, *q;
    p = a;
    q = p + 3;
    *p = 50;
    return *q + (q - p) + a[0];
})"),
              8 + 3 + 50);
}

TEST(Interp, PointerWalk)
{
    EXPECT_EQ(run(R"(
char src[8] = "hello";
char dst[8];
int main(void) {
    char *s, *d;
    s = src;
    d = dst;
    while (*s) {
        *d = *s;
        d = d + 1;
        s = s + 1;
    }
    *d = 0;
    return dst[0] + dst[4];
})"),
              'h' + 'o');
}

TEST(Interp, RecursionFibonacci)
{
    EXPECT_EQ(run(R"(
int fib(int n) {
    if (n < 2)
        return n;
    return fib(n - 1) + fib(n - 2);
}
int main(void) { return fib(12); }
)"),
              144);
}

TEST(Interp, MutualRecursion)
{
    EXPECT_EQ(run(R"(
int isOdd(int n);
int isEven(int n) { if (n == 0) return 1; return isOdd(n - 1); }
int isOdd(int n) { if (n == 0) return 0; return isEven(n - 1); }
int main(void) { return isEven(10) * 10 + isOdd(7); }
)"),
              11);
}

TEST(Interp, IncDecSemantics)
{
    EXPECT_EQ(run(R"(
int main(void) {
    int a, s;
    a = 5;
    s = a++;      /* s=5 a=6 */
    s = s + ++a;  /* a=7 s=12 */
    s = s + a--;  /* s=19 a=6 */
    s = s + --a;  /* a=5 s=24 */
    return s * 10 + a;
})"),
              245);
}

TEST(Interp, PostIncrementThroughPointer)
{
    EXPECT_EQ(run(R"(
char buf[4];
int main(void) {
    char *p;
    p = buf;
    *p++ = 'a';
    *p++ = 'b';
    return (p - buf) * 100 + buf[0] + buf[1];
})"),
              200 + 'a' + 'b');
}

TEST(Interp, AddressTakenLocals)
{
    EXPECT_EQ(run(R"(
void bump(int *p) { *p = *p + 7; }
int main(void) {
    int v;
    v = 10;
    bump(&v);
    return v;
})"),
              17);
}

TEST(Interp, LocalArrays)
{
    EXPECT_EQ(run(R"(
int main(void) {
    int a[8];
    int i, s;
    for (i = 0; i < 8; i++)
        a[i] = i * i;
    s = 0;
    for (i = 0; i < 8; i++)
        s = s + a[i];
    return s;
})"),
              140);
}

TEST(Interp, DivisionByZeroIsRuntimeError)
{
    EXPECT_NE(runError("int main(void) { int z; z = 0; return 4 / z; }"),
              "");
}

TEST(Interp, MinIntDividedByMinusOneWraps)
{
    // Run time, compound assignment, and a constant initializer whose
    // divisor sema evaluates: each wraps instead of trapping the host.
    EXPECT_EQ(run(R"(
int a[2];
int main(void) {
    int q;
    a[0] = -9223372036854775807 - 1;
    a[1] = -1;
    q = a[0];
    q /= a[1];
    return (a[0] / a[1] == a[0]) + (a[0] % a[1] == 0) + (q == a[0]);
})"),
              3);
    EXPECT_EQ(run("int g = 1 / ((-9223372036854775807 - 1) / -1);\n"
                  "int h = (-9223372036854775807 - 1) % -1;\n"
                  "int main(void) { return g + h; }"),
              0);
}

TEST(Interp, OutOfRangeDoubleToIntIsIndefinite)
{
    // A double outside int's range converts to the minimum int (the
    // x86 "integer indefinite"), in a constant initializer, a local or
    // global assignment and the returned value alike, instead of being
    // undefined behaviour.
    EXPECT_EQ(run(R"(
int g;
int h = 1e30;
int main(void) {
    double big;
    int i;
    int j;
    big = 1e30;
    i = big;
    j = 0.0 - big;
    g = big * big;
    return (i == -9223372036854775807 - 1) + (j == i) + (g == i) +
           (h == i);
})"),
              4);
    EXPECT_EQ(run("int main(void) { double d; d = 1e300; return d * d; }"),
              INT64_MIN);
    EXPECT_EQ(run("int main(void) { double d; d = -2.9; return d; }"), -2);
}

TEST(Interp, InfiniteLoopHitsStepBudget)
{
    DiagEngine diag;
    auto unit = frontend::parseAndCheck(
        "int main(void) { for (;;) {} return 0; }", diag);
    ASSERT_TRUE(unit != nullptr);
    interp::Interpreter in(*unit);
    auto res = in.run(/*stepBudget=*/10000);
    EXPECT_FALSE(res.ok);
}

TEST(Interp, MemoryInspection)
{
    DiagEngine diag;
    auto unit = frontend::parseAndCheck(R"(
double d = 2.5;
int i = 42;
char c = 'x';
int main(void) { return 0; }
)",
                                        diag);
    ASSERT_TRUE(unit != nullptr);
    interp::Interpreter in(*unit);
    ASSERT_TRUE(in.run().ok);
    EXPECT_DOUBLE_EQ(in.readDouble(in.globalAddress("d")), 2.5);
    EXPECT_EQ(in.readInt(in.globalAddress("i")), 42);
    EXPECT_EQ(in.readByte(in.globalAddress("c")), 'x');
}

TEST(Interp, StackOverflowFaultsBeforeAnyGlobalIsWritten)
{
    // The interpreter's stack sits below its globals as on the
    // machines, and overflows with the machines' message.
    DiagEngine diag;
    auto unit = frontend::parseAndCheck(kDeepRecursionSource, diag);
    ASSERT_TRUE(unit != nullptr) << diag.str();
    interp::Interpreter in(*unit);
    auto res = in.run();
    ASSERT_FALSE(res.ok) << "returned " << res.returnValue;
    EXPECT_EQ(res.error, rtl::kStackOverflowMessage);
    EXPECT_EQ(in.readInt(in.globalAddress("sentinel")), 12345);
    int64_t depth = in.readInt(in.globalAddress("depth"));
    EXPECT_GT(depth, 0);
    EXPECT_LE(depth * 512, rtl::kStackBytes);
}
