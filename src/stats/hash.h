/**
 * @file
 * Shared non-cryptographic hashing primitives. One definition of the
 * splitmix64 finalizer, so the cache-key hashes, admission sketch, and
 * result-cache signatures all mix with the identical, tested constant
 * sequence instead of hand-copied ones; and one FNV-1a accumulator for
 * every run fingerprint (fleet ledgers, fault schedules, throughput
 * bench).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace dri::stats {

/** splitmix64 finalizer: a fast, well-distributed 64-bit bit mixer. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/**
 * 64-bit FNV-1a accumulator. Values are folded byte by byte, integers
 * least-significant byte first at their own width (8 bytes for the
 * 64-bit types, 4 for int, 1 for bool) and doubles by their bit
 * pattern, so a fingerprint does not depend on the host's byte order.
 */
struct Fnv1a
{
    static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
    static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

    std::uint64_t h = kOffsetBasis;

    Fnv1a() = default;
    /** Start from a non-standard basis (pinned historical fingerprints). */
    explicit Fnv1a(std::uint64_t basis) : h(basis) {}

    void
    byte(std::uint8_t b)
    {
        h ^= b;
        h *= kPrime;
    }

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i)
            byte(b[i]);
    }

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }

    void
    add(int v)
    {
        const auto u = static_cast<std::uint32_t>(v);
        for (int i = 0; i < 4; ++i)
            byte(static_cast<std::uint8_t>(u >> (8 * i)));
    }

    void add(bool v) { byte(v ? 1 : 0); }

    void
    add(double v)
    {
        std::uint64_t bits = 0;
        static_assert(sizeof bits == sizeof v, "double must be 64-bit");
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
};

} // namespace dri::stats
