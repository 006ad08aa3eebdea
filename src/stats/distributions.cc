#include "stats/distributions.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dri::stats {

LognormalSampler::LognormalSampler(double median, double sigma)
    : median_(median), sigma_(sigma), mu_(std::log(median))
{
    assert(median > 0.0 && sigma >= 0.0);
}

double
LognormalSampler::mean() const
{
    return std::exp(mu_ + 0.5 * sigma_ * sigma_);
}

BoundedParetoSampler::BoundedParetoSampler(double alpha, double lo, double hi)
    : alpha_(alpha), lo_(lo), hi_(hi)
{
    if (!(std::isfinite(alpha) && std::isfinite(lo) && std::isfinite(hi)))
        throw std::invalid_argument(
            "BoundedParetoSampler: alpha, lo and hi must be finite");
    if (!(alpha > 0.0 && lo > 0.0 && hi >= lo))
        throw std::invalid_argument(
            "BoundedParetoSampler: needs alpha > 0, lo > 0 and hi >= lo");
    lo_pow_ = std::pow(lo_, alpha_);
    hi_pow_ = std::pow(hi_, alpha_);
}

double
BoundedParetoSampler::sample(Rng &rng) const
{
    if (lo_ == hi_)
        return lo_;
    // Inverse CDF of the bounded Pareto distribution.
    const double u = rng.uniform();
    return std::pow(-(u * hi_pow_ - u * lo_pow_ - hi_pow_) /
                        (hi_pow_ * lo_pow_),
                    -1.0 / alpha_);
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : s_(s)
{
    if (n == 0)
        throw std::invalid_argument("ZipfSampler: n must be > 0");
    if (n > std::numeric_limits<std::uint32_t>::max())
        throw std::invalid_argument("ZipfSampler: n exceeds 2^32 - 1");
    cdf_.resize(n);
    double acc = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf_[k] = acc;
    }
    for (auto &v : cdf_)
        v /= acc;

    // Up to eight buckets per rank, rounded up to a power of two so that
    // both j / m and u * m are exact: the forward scan from a bucket's
    // cut point then rarely takes a step, even in the tail where ranks
    // are densest. Past 32K buckets the guide stops over-allocating and
    // keeps one bucket per rank.
    constexpr std::size_t kDenseGuide = std::size_t{1} << 15;
    std::size_t m = 1;
    while (m < n || (m < 8 * n && m < kDenseGuide))
        m <<= 1;
    guide_.resize(m);
    guide_scale_ = static_cast<double>(m);
    std::size_t k = 0;
    for (std::size_t j = 0; j < m; ++j) {
        const double lo = static_cast<double>(j) / guide_scale_;
        while (k < n - 1 && cdf_[k] < lo)
            ++k;
        guide_[j] = static_cast<std::uint32_t>(k);
    }
}

} // namespace dri::stats
