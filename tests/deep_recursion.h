/**
 * @file
 * A program whose recursion outgrows the stack reservation, shared by
 * the stack-overflow tests of both machines and the interpreter.
 *
 * Every frame holds a 64-int local array (512 bytes), so the recursion
 * leaves a 64 KiB reservation after about 128 calls: far below the
 * interpreter's host call cap. Each call first checks the global
 * `sentinel` and returns -1 if it ever changed, so a run that ends in
 * a fault, not a return, never saw a frame reach the globals.
 */

#ifndef WMSTREAM_TESTS_DEEP_RECURSION_H
#define WMSTREAM_TESTS_DEEP_RECURSION_H

inline constexpr const char *kDeepRecursionSource = R"(
int sentinel = 12345;
int depth;
int dive(int d)
{
    int buf[64];
    int i;
    if (sentinel != 12345)
        return -1;
    depth = d;
    for (i = 0; i < 64; i = i + 1)
        buf[i] = d + i;
    return dive(d + 1) + buf[d % 64];
}
int main(void) { return dive(0); }
)";

#endif // WMSTREAM_TESTS_DEEP_RECURSION_H
