/**
 * @file
 * The large-function compile shape shared by the compile-cost tests:
 * one function with an initializing loop, then @p loops streamable
 * loops over global double arrays, `c[i] = c[i] + a[i] * b[i]`. It is
 * the shape of perfbench's bigtu workload.
 */

#ifndef WMSTREAM_TESTS_STREAM_LOOPS_H
#define WMSTREAM_TESTS_STREAM_LOOPS_H

#include <string>

#include "support/str.h"

inline std::string
streamLoopsSource(int loops)
{
    constexpr int n = 256;
    std::string src = wmstream::strFormat("double a[%d];\ndouble b[%d];\n"
                                          "double c[%d];\n",
                                          n, n, n);
    src += "int main() {\n  int i;\n";
    src += wmstream::strFormat("  for (i = 0; i < %d; i = i + 1) {\n"
                               "    a[i] = i; b[i] = 0.5; c[i] = 1.0;\n"
                               "  }\n",
                               n);
    for (int l = 0; l < loops; ++l)
        src += wmstream::strFormat("  for (i = 0; i < %d; i = i + 1) {\n"
                                   "    c[i] = c[i] + a[i] * b[i];\n  }\n",
                                   n);
    src += wmstream::strFormat("  return c[%d] + c[%d];\n}\n", n / 2,
                               n - 1);
    return src;
}

#endif // WMSTREAM_TESTS_STREAM_LOOPS_H
