/**
 * @file
 * The layout of a simulated memory image, shared by both machine
 * models and the interpreter.
 *
 * An image is sized to its program:
 *
 *     [0, kStackBytes)            the stack, growing down from the top
 *     [kStackBytes, data end)     the globals, laid out in order
 *     image size = data end rounded up to kPageBytes
 *
 * The stack sits below the globals, so a stack that outgrows its
 * reservation leaves the image at address 0 instead of running into
 * the globals: the ordinary bounds check faults before any global is
 * written. An access below address 0 is reported as "stack overflow".
 * No image may exceed kMaxImageBytes; a program whose globals do not
 * fit fails to start.
 */

#ifndef WMSTREAM_RTL_IMAGE_H
#define WMSTREAM_RTL_IMAGE_H

#include <cstdint>
#include <string>

#include "support/str.h"

namespace wmstream::rtl {

/** Image sizes are whole pages. */
constexpr int64_t kPageBytes = 4096;
/**
 * The stack reservation, below the globals. The deepest stack of the
 * Table II programs, the examples and a 2,000-program wmfuzz sweep is
 * recorded in DESIGN.md §7.11.
 */
constexpr int64_t kStackBytes = int64_t{64} << 10;
/** Initial stack pointer: just below the top of the reservation. */
constexpr int64_t kInitialSp = kStackBytes - 64;
/** The largest image any engine builds. */
constexpr int64_t kMaxImageBytes = int64_t{16} << 20;

/** The message of an access below the stack reservation. */
inline constexpr const char *kStackOverflowMessage = "stack overflow";

/** Why a program cannot start: global @p name crosses the ceiling. */
inline std::string
globalTooLargeMessage(const std::string &name, int64_t size,
                      int64_t address)
{
    return strFormat("global '%s' (%lld bytes at %lld) exceeds simulated "
                     "memory (%lld bytes); shrink the data",
                     name.c_str(), static_cast<long long>(size),
                     static_cast<long long>(address),
                     static_cast<long long>(kMaxImageBytes));
}

/** Size of an image whose globals end at @p dataEnd. */
constexpr int64_t
imageBytesFor(int64_t dataEnd)
{
    return (dataEnd + kPageBytes - 1) / kPageBytes * kPageBytes;
}

} // namespace wmstream::rtl

#endif // WMSTREAM_RTL_IMAGE_H
