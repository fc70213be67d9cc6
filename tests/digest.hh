/**
 * @file
 * FNV-1a 64 byte mixer of the pinned-digest suites. Every integer is
 * folded in as 8 little-endian bytes (signed values sign-extended),
 * every double as the 8 bytes of its bit pattern, and every string
 * byte by byte, so equal digests mean bitwise-equal inputs.
 */

#ifndef MOENTWINE_TESTS_DIGEST_HH
#define MOENTWINE_TESTS_DIGEST_HH

#include <cstdint>
#include <cstring>
#include <string>

namespace digest {

/** FNV-1a 64 offset basis: the digest of no bytes. */
constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;

/** Fold one byte into @p h. */
inline void
mixByte(std::uint64_t &h, std::uint8_t b)
{
    h ^= b;
    h *= 0x100000001b3ULL;
}

/** Fold @p v in as 8 little-endian bytes. */
inline void
mix(std::uint64_t &h, std::uint64_t v)
{
    for (int b = 0; b < 8; ++b)
        mixByte(h, static_cast<std::uint8_t>((v >> (8 * b)) & 0xffu));
}

/** Fold a signed value in, sign-extended to 64 bits. */
inline void
mixInt(std::uint64_t &h, std::int64_t v)
{
    mix(h, static_cast<std::uint64_t>(v));
}

/** Fold the bit pattern of @p v in. */
inline void
mixDouble(std::uint64_t &h, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    mix(h, bits);
}

/** Fold every byte of @p s in, in order. */
inline void
mixBytes(std::uint64_t &h, const std::string &s)
{
    for (const char c : s)
        mixByte(h, static_cast<std::uint8_t>(c));
}

} // namespace digest

#endif // MOENTWINE_TESTS_DIGEST_HH
