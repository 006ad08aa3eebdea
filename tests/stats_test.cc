/**
 * @file
 * Unit and property tests for the stats substrate: RNG determinism,
 * distribution moments, exact quantiles, histograms, utilization.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "stats/distributions.h"
#include "stats/histogram.h"
#include "stats/quantile.h"
#include "stats/rng.h"
#include "stats/summary.h"
#include "stats/table_printer.h"

namespace {

using namespace dri::stats;

TEST(Rng, SameSeedSameSequence)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 10; ++i)
        any_diff = any_diff || a.uniform() != b.uniform();
    EXPECT_TRUE(any_diff);
}

TEST(Rng, ForkIsIndependentOfParentDraws)
{
    Rng a(7);
    Rng fork_before = a.fork(1);
    a.uniform();
    a.uniform();
    Rng fork_after = a.fork(1);
    EXPECT_DOUBLE_EQ(fork_before.uniform(), fork_after.uniform());
}

TEST(Rng, ForkSaltsProduceDistinctStreams)
{
    Rng a(7);
    Rng f1 = a.fork(1), f2 = a.fork(2);
    EXPECT_NE(f1.uniform(), f2.uniform());
}

TEST(Rng, UniformIntBounds)
{
    Rng a(3);
    for (int i = 0; i < 1000; ++i) {
        const auto v = a.uniformInt(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, BernoulliExtremes)
{
    Rng a(5);
    EXPECT_FALSE(a.bernoulli(0.0));
    EXPECT_TRUE(a.bernoulli(1.0));
}

TEST(Lognormal, MedianIsMedian)
{
    Rng rng(11);
    LognormalSampler s(4.0, 0.5);
    std::vector<double> draws;
    for (int i = 0; i < 20000; ++i)
        draws.push_back(s.sample(rng));
    std::nth_element(draws.begin(), draws.begin() + 10000, draws.end());
    EXPECT_NEAR(draws[10000], 4.0, 0.15);
}

TEST(Lognormal, ZeroSigmaIsConstant)
{
    Rng rng(1);
    LognormalSampler s(3.0, 0.0);
    EXPECT_DOUBLE_EQ(s.sample(rng), 3.0);
}

TEST(Lognormal, AnalyticMean)
{
    LognormalSampler s(2.0, 0.8);
    EXPECT_NEAR(s.mean(), 2.0 * std::exp(0.5 * 0.64), 1e-12);
}

TEST(BoundedPareto, SamplesWithinBounds)
{
    Rng rng(13);
    BoundedParetoSampler s(1.1, 10.0, 1000.0);
    for (int i = 0; i < 5000; ++i) {
        const double v = s.sample(rng);
        EXPECT_GE(v, 10.0 * 0.999);
        EXPECT_LE(v, 1000.0 * 1.001);
    }
}

TEST(BoundedPareto, HeavyTailHasLargeP99OverP50)
{
    Rng rng(17);
    BoundedParetoSampler s(1.1, 50.0, 6000.0);
    QuantileEstimator q;
    for (int i = 0; i < 50000; ++i)
        q.add(s.sample(rng));
    EXPECT_GT(q.p99() / q.p50(), 5.0);
}

TEST(BoundedPareto, DegenerateRange)
{
    Rng rng(19);
    BoundedParetoSampler s(2.0, 5.0, 5.0);
    EXPECT_DOUBLE_EQ(s.sample(rng), 5.0);
}

TEST(BoundedPareto, RejectsBadParameters)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(BoundedParetoSampler(0.0, 1.0, 2.0), std::invalid_argument);
    EXPECT_THROW(BoundedParetoSampler(-1.0, 1.0, 2.0),
                 std::invalid_argument);
    EXPECT_THROW(BoundedParetoSampler(1.1, 0.0, 2.0), std::invalid_argument);
    EXPECT_THROW(BoundedParetoSampler(1.1, -1.0, 2.0),
                 std::invalid_argument);
    EXPECT_THROW(BoundedParetoSampler(1.1, 3.0, 2.0), std::invalid_argument);
    EXPECT_THROW(BoundedParetoSampler(nan, 1.0, 2.0), std::invalid_argument);
    EXPECT_THROW(BoundedParetoSampler(1.1, nan, 2.0), std::invalid_argument);
    EXPECT_THROW(BoundedParetoSampler(1.1, 1.0, nan), std::invalid_argument);
    EXPECT_THROW(BoundedParetoSampler(inf, 1.0, 2.0), std::invalid_argument);
    EXPECT_THROW(BoundedParetoSampler(1.1, 1.0, inf), std::invalid_argument);
    EXPECT_NO_THROW(BoundedParetoSampler(1.1, 1.0, 1.0));
}

TEST(KnuthPoisson, NonPositiveMeanDrawsNothing)
{
    Rng rng(29), ref(29);
    EXPECT_EQ(knuthPoisson(0.0, rng), 0);
    EXPECT_EQ(knuthPoisson(-2.0, rng), 0);
    EXPECT_EQ(rng.uniform(), ref.uniform()); // the stream did not move
}

TEST(KnuthPoisson, MeanMatches)
{
    Rng rng(31);
    for (const double mean : {0.5, 3.0, 20.0}) {
        double sum = 0.0;
        const int n = 20000;
        for (int i = 0; i < n; ++i) {
            const auto k = knuthPoisson(mean, rng);
            ASSERT_GE(k, 0);
            sum += k;
        }
        EXPECT_NEAR(sum / n, mean, 0.05 * mean + 0.02) << mean;
    }
}

TEST(Zipf, RankZeroMostPopular)
{
    Rng rng(23);
    ZipfSampler s(100, 1.2);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 50000; ++i)
        ++counts[s.sample(rng)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[0], counts[50]);
}

TEST(Zipf, AllRanksReachable)
{
    Rng rng(29);
    ZipfSampler s(5, 0.5);
    std::vector<int> counts(5, 0);
    for (int i = 0; i < 20000; ++i)
        ++counts[s.sample(rng)];
    for (int c : counts)
        EXPECT_GT(c, 0);
}

/** Reference inverse CDF: binary search for the first cdf entry >= u. */
std::size_t
referenceRank(const std::vector<double> &cdf, double u)
{
    std::size_t lo = 0, hi = cdf.size() - 1;
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (cdf[mid] < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

TEST(Zipf, GuideTableMatchesBinarySearch)
{
    std::int64_t draws = 0;
    for (const double skew : {0.5, 0.8, 1.2}) {
        for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                                    std::size_t{4096}, std::size_t{5000}}) {
            const ZipfSampler zipf(n, skew);
            const auto &cdf = zipf.cdf();
            ASSERT_EQ(cdf.size(), n);

            // Seeded draws: the sampled rank is the reference rank of
            // the very same uniform.
            Rng sampled(0x5eed + n), reference(0x5eed + n);
            for (int i = 0; i < 100000; ++i, ++draws) {
                const std::size_t got = zipf.sample(sampled);
                ASSERT_EQ(got, referenceRank(cdf, reference.uniform()))
                    << "skew=" << skew << " n=" << n << " i=" << i;
            }

            // Every cut point and its neighbours: u exactly on a cdf
            // value, one ulp either side.
            for (std::size_t k = 0; k < n; ++k) {
                for (const double u :
                     {std::nextafter(cdf[k], 0.0), cdf[k],
                      std::nextafter(cdf[k], 2.0)}) {
                    ASSERT_EQ(zipf.rankOf(u), referenceRank(cdf, u))
                        << "skew=" << skew << " n=" << n << " k=" << k
                        << " u=" << u;
                }
            }
            // The edges of [0, 1) and the largest double below 1.
            for (const double u : {0.0, std::nextafter(0.0, 1.0),
                                   std::nextafter(1.0, 0.0)})
                EXPECT_EQ(zipf.rankOf(u), referenceRank(cdf, u));
        }
    }
    EXPECT_GE(draws, 1000000);
}

TEST(Zipf, RejectsEmptySupport)
{
    EXPECT_THROW(static_cast<void>(ZipfSampler(0, 0.8)),
                 std::invalid_argument);
}

TEST(Quantile, ExactAgainstSortedSamples)
{
    QuantileEstimator q;
    for (int i = 100; i >= 1; --i)
        q.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(q.min(), 1.0);
    EXPECT_DOUBLE_EQ(q.max(), 100.0);
    EXPECT_DOUBLE_EQ(q.quantile(0.5), 50.5);
    EXPECT_NEAR(q.p99(), 99.01, 1e-9);
}

TEST(Quantile, SingleSample)
{
    QuantileEstimator q;
    q.add(7.0);
    EXPECT_DOUBLE_EQ(q.p50(), 7.0);
    EXPECT_DOUBLE_EQ(q.p99(), 7.0);
}

TEST(Quantile, MeanAndSum)
{
    QuantileEstimator q;
    for (const double v : {1.0, 2.0, 3.0, 4.0})
        q.add(v);
    EXPECT_DOUBLE_EQ(q.mean(), 2.5);
    EXPECT_DOUBLE_EQ(q.sum(), 10.0);
}

TEST(Quantile, InterleavedAddAndQuery)
{
    QuantileEstimator q;
    q.add(3.0);
    q.add(1.0);
    EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
    q.add(2.0);
    EXPECT_DOUBLE_EQ(q.p50(), 2.0);
}

TEST(Quantile, ClearResets)
{
    QuantileEstimator q;
    q.add(1.0);
    q.clear();
    EXPECT_TRUE(q.empty());
}

/**
 * The sum (and so the mean) depends only on the multiset of samples,
 * not on arrival order or on queries interleaved with the adds: the
 * estimator sorts its one buffer in place and accumulates in sorted
 * order.
 */
TEST(Quantile, SumIsIndependentOfArrivalOrder)
{
    Rng rng(0x5eed);
    std::vector<double> vals;
    for (int i = 0; i < 4000; ++i)
        vals.push_back(rng.gaussian(10.0, 5.0));
    QuantileEstimator forward, backward;
    for (std::size_t i = 0; i < vals.size(); ++i) {
        forward.add(vals[i]);
        if (i % 997 == 0)
            static_cast<void>(forward.p99()); // sort mid-stream
    }
    for (auto it = vals.rbegin(); it != vals.rend(); ++it)
        backward.add(*it);
    ASSERT_EQ(forward.count(), backward.count());
    EXPECT_EQ(forward.sum(), backward.sum());
    EXPECT_EQ(forward.mean(), backward.mean());
    for (const double p : {0.0, 0.5, 0.99, 0.999, 1.0})
        EXPECT_EQ(forward.quantile(p), backward.quantile(p)) << p;
}

/** Property: quantiles are monotone in q. */
class QuantileMonotoneTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(QuantileMonotoneTest, MonotoneInQ)
{
    Rng rng(GetParam());
    QuantileEstimator q;
    for (int i = 0; i < 500; ++i)
        q.add(rng.gaussian(10.0, 5.0));
    double prev = q.quantile(0.0);
    for (double p = 0.05; p <= 1.0; p += 0.05) {
        const double v = q.quantile(p);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotoneTest,
                         ::testing::Values(1, 2, 3, 42, 99, 123456));

TEST(Histogram, CountsAndClamping)
{
    Histogram h(0.0, 10.0, 10);
    h.add(-5.0);  // clamps to first bin
    h.add(0.5);
    h.add(9.5);
    h.add(50.0); // clamps to last bin
    EXPECT_EQ(h.totalCount(), 4u);
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.count(9), 2u);
}

TEST(Histogram, FractionsSumToOne)
{
    Histogram h(0.0, 1.0, 7);
    Rng rng(37);
    for (int i = 0; i < 1000; ++i)
        h.add(rng.uniform());
    double total = 0.0;
    for (std::size_t b = 0; b < h.binCount(); ++b)
        total += h.fraction(b);
    EXPECT_NEAR(total, 1.0, 1e-12);
    EXPECT_NEAR(h.cumulativeFraction(h.binCount() - 1), 1.0, 1e-12);
}

TEST(Histogram, LogScaleBins)
{
    Histogram h(1.0, 1000.0, 3, Histogram::Scale::Log);
    EXPECT_NEAR(h.binLo(0), 1.0, 1e-9);
    EXPECT_NEAR(h.binLo(1), 10.0, 1e-6);
    EXPECT_NEAR(h.binLo(2), 100.0, 1e-4);
    h.add(5.0);
    EXPECT_EQ(h.count(0), 1u);
    h.add(500.0);
    EXPECT_EQ(h.count(2), 1u);
}

TEST(Histogram, RenderContainsCounts)
{
    Histogram h(0.0, 2.0, 2);
    h.add(0.5);
    const std::string out = h.render();
    EXPECT_NE(out.find("1"), std::string::npos);
}

TEST(Quantile, P999TracksExtremeTail)
{
    QuantileEstimator q;
    for (int i = 1; i <= 10000; ++i)
        q.add(static_cast<double>(i));
    EXPECT_NEAR(q.p999(), 9991.0, 1.0);
    EXPECT_GT(q.p999(), q.p99());
    EXPECT_GT(q.p99(), q.p90());
}

TEST(Summary, UtilizationFraction)
{
    // 8 workers busy half the time over 1000 ns: 4000 unit-ns busy.
    EXPECT_DOUBLE_EQ(utilizationFraction(4000.0, 8, 1000.0), 0.5);
    EXPECT_DOUBLE_EQ(utilizationFraction(0.0, 8, 1000.0), 0.0);
    // Clamped: rounding can push the integral past capacity x elapsed.
    EXPECT_DOUBLE_EQ(utilizationFraction(9000.0, 8, 1000.0), 1.0);
    // Degenerate inputs don't divide by zero.
    EXPECT_DOUBLE_EQ(utilizationFraction(100.0, 0, 1000.0), 0.0);
    EXPECT_DOUBLE_EQ(utilizationFraction(100.0, 8, 0.0), 0.0);
}

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter t({"a", "bb"});
    t.addRow({"xxxx", "y"});
    const std::string out = t.render();
    EXPECT_NE(out.find("a     bb"), std::string::npos);
    EXPECT_NE(out.find("xxxx  y"), std::string::npos);
}

TEST(TablePrinter, NumberFormatting)
{
    EXPECT_EQ(TablePrinter::num(1.23456, 2), "1.23");
    EXPECT_EQ(TablePrinter::pct(0.073, 1), "+7.3%");
    EXPECT_EQ(TablePrinter::pct(-0.01, 1), "-1.0%");
}

} // namespace
