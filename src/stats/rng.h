/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis and
 * network jitter. Every stochastic component in the library draws from an
 * explicitly seeded Rng so that experiments are bit-reproducible.
 */
#pragma once

#include <cmath>
#include <cstdint>

#include "stats/mt64.h"

namespace dri::stats {

/**
 * The canonical double in [0, 1) for one full 64-bit engine word —
 * exactly what libstdc++'s std::generate_canonical<double, 53> produces
 * for a URBG spanning the full 2^64 range: the word rounded to double,
 * scaled by 2^-64, with the rounded-up-to-1.0 edge clamped back below 1.
 *
 * The word is converted as two 32-bit halves. Without AVX-512, x86-64
 * has no unsigned 64-bit conversion, and gcc's static_cast<double> of a
 * uint64_t branches on the top bit — a random bit here, so the branch
 * mispredicts about half the time. Each half converts exactly, hi * 2^32
 * is exact, and the single rounding of the sum yields the correctly
 * rounded value of the word: the same double the cast gives, for every
 * word (SimPerf.CanonicalMatchesCastAtEdgeWords pins the edge words).
 */
inline double
canonicalFromWord(std::uint64_t w)
{
    const double hi = static_cast<double>(static_cast<std::uint32_t>(w >> 32));
    const double lo = static_cast<double>(static_cast<std::uint32_t>(w));
    double r = (hi * 0x1p32 + lo) * 0x1p-64;
    if (r >= 1.0)
        r = std::nextafter(1.0, 0.0);
    return r;
}

/**
 * A seeded 64-bit Mersenne Twister with convenience draw helpers.
 *
 * Rng is cheap to copy but typically passed by reference; components that
 * need independent streams should derive one with fork() so that adding a
 * consumer never perturbs the draws seen by existing consumers. The
 * engine is Mt64, a lazily-seeded generator output-identical to
 * std::mt19937_64 — forks are cheap (no eager 312-word state expansion),
 * and every historical draw value is preserved bit-for-bit.
 *
 * Cost (Release, 4-vCPU x86-64 VM, bench_micro_kernels): uniform() ~7 ns,
 * gaussian() ~35-50 ns, fork() plus six draws ~450 ns. Neither the
 * engine nor canonicalFromWord branches on a random bit.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

    /** Uniform double in [0, 1). */
    double uniform() { return canonical(); }

    /** Uniform double in [lo, hi). Requires lo <= hi. */
    double uniform(double lo, double hi)
    {
        return canonical() * (hi - lo) + lo;
    }

    /** Uniform integer in [lo, hi], inclusive. Requires lo <= hi. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /**
     * Standard normal draw. Marsaglia polar method, matching
     * std::normal_distribution's variate sequence (the second coordinate
     * of each accepted pair is returned; the first would be the
     * distribution object's cached deviate, which per-call construction
     * always discarded).
     */
    double
    gaussian()
    {
        double x, y, r2;
        do {
            x = 2.0 * canonical() - 1.0;
            y = 2.0 * canonical() - 1.0;
            r2 = x * x + y * y;
        } while (r2 > 1.0 || r2 == 0.0);
        const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
        return y * mult;
    }

    /** Normal draw with the given mean and standard deviation. */
    double gaussian(double mean, double stddev)
    {
        return gaussian() * stddev + mean;
    }

    /** Exponential draw with the given rate (events per unit time). */
    double exponential(double rate) { return -std::log(1.0 - canonical()) / rate; }

    /** Bernoulli draw: true with probability p. */
    bool bernoulli(double p) { return canonical() < p; }

    /**
     * Derive an independent child stream. The child's sequence is a pure
     * function of (parent seed, salt), not of how many draws the parent has
     * made. SplitMix64-style mix of (seed, salt) gives well-separated
     * child seeds without consuming draws from the parent stream.
     */
    Rng
    fork(std::uint64_t salt) const
    {
        std::uint64_t z = seed_ + 0x9e3779b97f4a7c15ULL * (salt + 1);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z = z ^ (z >> 31);
        return Rng(z);
    }

    /** The seed this stream was constructed with. */
    std::uint64_t seed() const { return seed_; }

    /** Expose the engine for std:: distribution interop. */
    Mt64 &engine() { return engine_; }

  private:
    /**
     * One canonical double in [0, 1) per engine word (see
     * canonicalFromWord). The draw helpers hand-roll their distributions
     * on top of this instead of constructing std:: distribution objects
     * per call: the values are bit-identical (locked down by
     * sim_perf_test against the std:: implementations), but the per-call
     * cost drops severalfold.
     */
    double canonical() { return canonicalFromWord(engine_()); }

    Mt64 engine_;
    std::uint64_t seed_;
};

} // namespace dri::stats
