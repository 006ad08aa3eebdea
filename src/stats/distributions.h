/**
 * @file
 * Parametric samplers used throughout workload and network modelling.
 *
 * The paper's workload structure is distributional: request sizes are
 * heavy-tailed (P99 latency is ~5x P50, Table III), embedding-table sizes
 * follow either a long tail (DRM1/DRM2) or a single dominant mass (DRM3,
 * Fig. 5), and network jitter is modelled as lognormal, the standard choice
 * for data-center RPC latency.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "stats/rng.h"

namespace dri::stats {

/**
 * Lognormal sampler parameterized by the *median* and the sigma of the
 * underlying normal. median = exp(mu) makes calibration against measured
 * medians direct.
 */
class LognormalSampler
{
  public:
    LognormalSampler(double median, double sigma);

    /** Inline: every simulated wire hop pays one of these. */
    double
    sample(Rng &rng) const
    {
        if (sigma_ == 0.0)
            return median_;
        return std::exp(mu_ + sigma_ * rng.gaussian());
    }

    /** Analytic mean: exp(mu + sigma^2 / 2). */
    double mean() const;

    double median() const { return median_; }
    double sigma() const { return sigma_; }

  private:
    double median_;
    double sigma_;
    double mu_;
};

/**
 * Bounded Pareto sampler for heavy-tailed request sizes. alpha controls tail
 * weight (smaller = heavier); samples lie in [lo, hi].
 */
class BoundedParetoSampler
{
  public:
    /**
     * Throws std::invalid_argument unless alpha > 0, lo > 0 and hi >= lo,
     * all finite.
     */
    BoundedParetoSampler(double alpha, double lo, double hi);

    double sample(Rng &rng) const;

    double alpha() const { return alpha_; }
    double lo() const { return lo_; }
    double hi() const { return hi_; }

  private:
    double alpha_;
    double lo_;
    double hi_;
    double lo_pow_; //!< lo^alpha, for the inverse CDF.
    double hi_pow_; //!< hi^alpha.
};

/**
 * Poisson draw by Knuth's multiplication method: multiply uniforms until
 * the product drops to exp(-mean) or below. Costs mean + 1 draws on
 * average, so it suits small means only. A mean <= 0 returns 0 without
 * drawing.
 */
inline std::int32_t
knuthPoisson(double mean, Rng &rng)
{
    if (mean <= 0.0)
        return 0;
    const double l = std::exp(-mean);
    double p = 1.0;
    std::int32_t k = 0;
    do {
        ++k;
        p *= rng.uniform();
    } while (p > l);
    return k - 1;
}

/**
 * Zipf sampler over ranks 1..n with exponent s, via inverse-CDF on the
 * precomputed normalization. Used for skewed embedding-row popularity.
 *
 * The inverse CDF is an exact guide-table (cut-point) search: bucket j
 * of a power-of-two guide holds the first rank whose cdf reaches j / m,
 * so for u in bucket floor(u * m) — exact, m being a power of two — the
 * answer is at or after guide[j], and a short forward scan finds the
 * first cdf entry >= u. That is the rank a binary search over the cdf
 * returns, for every u, at O(1) expected cost instead of log2(n) steps.
 */
class ZipfSampler
{
  public:
    /** Throws std::invalid_argument when n == 0. */
    ZipfSampler(std::size_t n, double s);

    /** Returns a rank in [0, n). Rank 0 is the most popular. */
    std::size_t
    sample(Rng &rng) const
    {
        return rankOf(rng.uniform());
    }

    /** The rank u in [0, 1) maps to: the first k with cdf[k] >= u. */
    std::size_t
    rankOf(double u) const
    {
        // u * m is exact; the clamp only keeps a u outside [0, 1) (or
        // NaN) from indexing past the guide.
        const double b = (u > 0.0 ? std::min(u, 1.0) : 0.0) * guide_scale_;
        std::size_t k = guide_[std::min(static_cast<std::size_t>(b),
                                        guide_.size() - 1)];
        const std::size_t last = cdf_.size() - 1;
        while (k < last && cdf_[k] < u)
            ++k;
        return k;
    }

    std::size_t n() const { return cdf_.size(); }
    double s() const { return s_; }
    /** Normalized cumulative mass: cdf()[k] = P(rank <= k). */
    const std::vector<double> &cdf() const { return cdf_; }

  private:
    std::vector<double> cdf_;
    /** guide_[j] = first k with cdf_[k] >= j / guide_.size(). */
    std::vector<std::uint32_t> guide_;
    double guide_scale_ = 0.0;
    double s_;
};

} // namespace dri::stats
