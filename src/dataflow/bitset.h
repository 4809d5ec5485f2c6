/**
 * @file
 * Dense bitset primitives over raw word arrays.
 *
 * The dataflow framework stores every analysis fact set as a span of
 * 64-bit words allocated from a BitsetPool (pool.h), in the style of
 * the nesfab liveness kernels: no per-set heap allocation, no
 * per-element hashing, and the solver's inner loop is word-parallel
 * OR/AND over contiguous memory. All functions take the word count
 * explicitly; the caller owns sizing (bitsetWords()).
 */

#ifndef WMSTREAM_DATAFLOW_BITSET_H
#define WMSTREAM_DATAFLOW_BITSET_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace wmstream::dataflow {

using BitsetWord = uint64_t;
constexpr size_t kBitsetWordBits = 64;

/** Words needed to hold @p bits bits (0 bits -> 0 words). */
inline size_t
bitsetWords(size_t bits)
{
    return (bits + kBitsetWordBits - 1) / kBitsetWordBits;
}

inline void
bitsetSet(BitsetWord *p, size_t i)
{
    p[i / kBitsetWordBits] |= BitsetWord{1} << (i % kBitsetWordBits);
}

inline void
bitsetReset(BitsetWord *p, size_t i)
{
    p[i / kBitsetWordBits] &= ~(BitsetWord{1} << (i % kBitsetWordBits));
}

inline bool
bitsetTest(const BitsetWord *p, size_t i)
{
    return (p[i / kBitsetWordBits] >>
            (i % kBitsetWordBits)) & BitsetWord{1};
}

inline void
bitsetClearAll(size_t words, BitsetWord *p)
{
    std::memset(p, 0, words * sizeof(BitsetWord));
}

/** Set the first @p bits bits; trailing bits of the last word stay 0
 *  so bitsetEqual/bitsetCount never see garbage. */
inline void
bitsetSetAll(size_t words, BitsetWord *p, size_t bits)
{
    if (!words)
        return;
    std::memset(p, 0xFF, words * sizeof(BitsetWord));
    size_t tail = bits % kBitsetWordBits;
    if (tail)
        p[words - 1] = (BitsetWord{1} << tail) - 1;
}

inline void
bitsetCopy(size_t words, BitsetWord *dst, const BitsetWord *src)
{
    std::copy_n(src, words, dst); // defined for empty null vectors
}

/** dst |= src; returns true when dst changed. */
inline bool
bitsetOr(size_t words, BitsetWord *dst, const BitsetWord *src)
{
    BitsetWord changed = 0;
    for (size_t i = 0; i < words; ++i) {
        BitsetWord next = dst[i] | src[i];
        changed |= next ^ dst[i];
        dst[i] = next;
    }
    return changed != 0;
}

/** dst &= src; returns true when dst changed. */
inline bool
bitsetAnd(size_t words, BitsetWord *dst, const BitsetWord *src)
{
    BitsetWord changed = 0;
    for (size_t i = 0; i < words; ++i) {
        BitsetWord next = dst[i] & src[i];
        changed |= next ^ dst[i];
        dst[i] = next;
    }
    return changed != 0;
}

/** dst &= ~src. */
inline void
bitsetAndNot(size_t words, BitsetWord *dst, const BitsetWord *src)
{
    for (size_t i = 0; i < words; ++i)
        dst[i] &= ~src[i];
}

inline bool
bitsetEqual(size_t words, const BitsetWord *a, const BitsetWord *b)
{
    return std::memcmp(a, b, words * sizeof(BitsetWord)) == 0;
}

inline size_t
bitsetCount(size_t words, const BitsetWord *p)
{
    size_t n = 0;
    for (size_t i = 0; i < words; ++i)
        n += static_cast<size_t>(__builtin_popcountll(p[i]));
    return n;
}

/** Call @p f(index) for every set bit, ascending. */
template <typename F>
inline void
bitsetForEach(size_t words, const BitsetWord *p, F f)
{
    for (size_t w = 0; w < words; ++w) {
        BitsetWord bits = p[w];
        while (bits) {
            unsigned tz =
                static_cast<unsigned>(__builtin_ctzll(bits));
            f(w * kBitsetWordBits + tz);
            bits &= bits - 1;
        }
    }
}

/** Call @p f(index) for every bit set in both @p a and @p b, ascending. */
template <typename F>
inline void
bitsetForEachAnd(size_t words, const BitsetWord *a, const BitsetWord *b,
                 F f)
{
    for (size_t w = 0; w < words; ++w) {
        BitsetWord bits = a[w] & b[w];
        while (bits) {
            unsigned tz =
                static_cast<unsigned>(__builtin_ctzll(bits));
            f(w * kBitsetWordBits + tz);
            bits &= bits - 1;
        }
    }
}

} // namespace wmstream::dataflow

#endif // WMSTREAM_DATAFLOW_BITSET_H
