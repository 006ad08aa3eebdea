#include "stats/quantile.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace dri::stats {

void
QuantileEstimator::add(double sample)
{
    samples_.push_back(sample);
    sorted_ = false;
}

void
QuantileEstimator::ensureSorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
QuantileEstimator::quantile(double q) const
{
    assert(!empty());
    assert(q >= 0.0 && q <= 1.0);
    ensureSorted();
    if (samples_.size() == 1)
        return samples_.front();
    const double pos = q * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = static_cast<std::size_t>(std::ceil(pos));
    const double frac = pos - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double
QuantileEstimator::mean() const
{
    assert(!empty());
    return sum() / static_cast<double>(count());
}

double
QuantileEstimator::sum() const
{
    // Accumulate in sorted order: the sum then depends only on the
    // multiset, not on arrival order.
    ensureSorted();
    return std::accumulate(samples_.begin(), samples_.end(), 0.0);
}

void
QuantileEstimator::clear()
{
    samples_.clear();
    sorted_ = true;
}

} // namespace dri::stats
