/**
 * @file
 * Numeric conversions with a defined result for every input.
 */

#ifndef WMSTREAM_SUPPORT_CONVERT_H
#define WMSTREAM_SUPPORT_CONVERT_H

#include <cstdint>
#include <limits>

namespace wmstream {

/**
 * Convert @p d to int64_t, truncating toward zero like a C cast. A C
 * cast is undefined for NaN and for values outside int64_t's range;
 * this returns INT64_MIN for those, which is the "integer indefinite"
 * value x86's cvttsd2si produces, so results match what the compiled
 * cast gave on x86 hosts while staying defined everywhere.
 */
inline int64_t
truncToInt64(double d)
{
    // -2^63 converts exactly; 2^63 is the first double out of range.
    constexpr double kLimit = 9223372036854775808.0;
    if (d >= -kLimit && d < kLimit)
        return static_cast<int64_t>(d);
    return std::numeric_limits<int64_t>::min();
}

} // namespace wmstream

#endif // WMSTREAM_SUPPORT_CONVERT_H
