/**
 * @file
 * Tests for the workload generator: determinism, request-size bounds,
 * pooling-factor estimation (the Section III-B2 sampling methodology), and
 * the per-table semantics (item-scaled vs per-request pooling), and a
 * golden oracle pinning the exact bits of every generated stream.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "model/generators.h"
#include "stats/hash.h"
#include "stats/quantile.h"
#include "workload/diurnal.h"
#include "workload/request_generator.h"

namespace {

using namespace dri;
using workload::GeneratorConfig;
using workload::Request;
using workload::RequestGenerator;

TEST(RequestGenerator, DeterministicForSeed)
{
    const auto spec = model::makeDrm1();
    RequestGenerator g1(spec, GeneratorConfig{42, 0.0});
    RequestGenerator g2(spec, GeneratorConfig{42, 0.0});
    const auto a = g1.generate(50);
    const auto b = g2.generate(50);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].items, b[i].items);
        EXPECT_EQ(a[i].table_lookups, b[i].table_lookups);
    }
}

TEST(RequestGenerator, DifferentSeedsDiffer)
{
    const auto spec = model::makeDrm2();
    RequestGenerator g1(spec, GeneratorConfig{1, 0.0});
    RequestGenerator g2(spec, GeneratorConfig{2, 0.0});
    EXPECT_NE(g1.next().items, g2.next().items);
}

TEST(RequestGenerator, ItemsWithinSpecBounds)
{
    const auto spec = model::makeDrm1();
    RequestGenerator gen(spec, GeneratorConfig{7, 0.0});
    for (const auto &req : gen.generate(2000)) {
        EXPECT_GE(req.items,
                  static_cast<std::int64_t>(spec.items_min) - 1);
        EXPECT_LE(req.items,
                  static_cast<std::int64_t>(spec.items_max) + 1);
        EXPECT_EQ(req.table_lookups.size(), spec.tables.size());
    }
}

TEST(RequestGenerator, IdsAreSequential)
{
    const auto spec = model::makeDrm3();
    RequestGenerator gen(spec, GeneratorConfig{9, 0.0});
    const auto reqs = gen.generate(10);
    for (std::size_t i = 0; i < reqs.size(); ++i)
        EXPECT_EQ(reqs[i].id, i);
}

TEST(RequestGenerator, Drm3DominantTableExactlyOneLookup)
{
    const auto spec = model::makeDrm3();
    RequestGenerator gen(spec, GeneratorConfig{11, 0.0});
    for (const auto &req : gen.generate(200))
        EXPECT_EQ(req.table_lookups[0], 1); // pooling factor 1 per request
}

TEST(RequestGenerator, LookupsScaleWithItems)
{
    const auto spec = model::makeDrm1();
    RequestGenerator gen(spec, GeneratorConfig{13, 0.0});
    const auto reqs = gen.generate(3000);
    const Request *small = &reqs[0];
    const Request *big = &reqs[0];
    for (const auto &r : reqs) {
        if (r.items < small->items)
            small = &r;
        if (r.items > big->items)
            big = &r;
    }
    ASSERT_GT(big->items, small->items * 4);
    EXPECT_GT(big->totalLookups(), small->totalLookups() * 3);
}

TEST(RequestGenerator, PoolingEstimateMatchesSpec)
{
    const auto spec = model::makeDrm1();
    RequestGenerator gen(spec, GeneratorConfig{17, 0.0});
    const auto pooling = gen.estimatePoolingFactors(1000);
    ASSERT_EQ(pooling.size(), spec.tables.size());
    double total = 0.0;
    for (double p : pooling)
        total += p;
    // Sampled total pooling per request should be near the spec's
    // analytic expectation (Table II: ~138943 summed over shards).
    EXPECT_NEAR(total, spec.expectedPoolingPerRequest(),
                spec.expectedPoolingPerRequest() * 0.15);
}

TEST(RequestGenerator, PoolingEstimateDoesNotPerturbStream)
{
    const auto spec = model::makeDrm2();
    RequestGenerator g1(spec, GeneratorConfig{21, 0.0});
    RequestGenerator g2(spec, GeneratorConfig{21, 0.0});
    (void)g2.estimatePoolingFactors(100);
    EXPECT_EQ(g1.next().items, g2.next().items);
}

TEST(RequestGenerator, NetLookupSplit)
{
    const auto spec = model::makeDrm1();
    RequestGenerator gen(spec, GeneratorConfig{23, 0.0});
    const auto req = gen.next();
    EXPECT_EQ(req.lookupsForNet(spec, 0) + req.lookupsForNet(spec, 1),
              req.totalLookups());
    // Net 1 is the hot net (~94% of pooling).
    EXPECT_GT(req.lookupsForNet(spec, 0), req.lookupsForNet(spec, 1));
}

TEST(RequestGenerator, DiurnalModulationChangesSizes)
{
    const auto spec = model::makeDrm1();
    RequestGenerator flat(spec, GeneratorConfig{31, 0.0});
    RequestGenerator wavy(spec, GeneratorConfig{31, 0.5});
    const auto a = flat.generate(1000);
    const auto b = wavy.generate(1000);
    bool any_diff = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        any_diff = any_diff || a[i].items != b[i].items;
    EXPECT_TRUE(any_diff);
}

TEST(RequestGenerator, RejectsBadDiurnalAmplitude)
{
    // A negative amplitude would be ignored; one of 1 or more (or NaN)
    // would scale requests to one item.
    const auto spec = model::makeDrm1();
    for (const double a : {-0.1, 1.0, 1.5,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()})
        EXPECT_THROW(RequestGenerator(spec, GeneratorConfig{1, a}),
                     std::invalid_argument)
            << a;
    EXPECT_NO_THROW(RequestGenerator(spec, GeneratorConfig{1, 0.0}));
    EXPECT_NO_THROW(RequestGenerator(spec, GeneratorConfig{1, 0.99}));
}

TEST(RequestGenerator, RejectsBadItemsDistribution)
{
    auto spec = model::makeDrm1();
    spec.items_min = 0.0;
    EXPECT_THROW(RequestGenerator(spec, GeneratorConfig{}),
                 std::invalid_argument);
    spec = model::makeDrm1();
    spec.items_max = spec.items_min / 2;
    EXPECT_THROW(RequestGenerator(spec, GeneratorConfig{}),
                 std::invalid_argument);
}

TEST(RequestGenerator, HeavyTailP99OverP50)
{
    const auto spec = model::makeDrm1();
    RequestGenerator gen(spec, GeneratorConfig{37, 0.0});
    stats::QuantileEstimator q;
    for (const auto &r : gen.generate(5000))
        q.add(static_cast<double>(r.items));
    EXPECT_GT(q.p99() / q.p50(), 4.0);
}

// ---------------------------------------------------------------------------
// Golden oracle: the exact bits of the generated streams. Any change to a
// draw helper, a sampler or the generator that moves one request moves
// these fingerprints, so the draw path can be optimised only in ways that
// leave every value unchanged.
// ---------------------------------------------------------------------------

void
foldRequests(stats::Fnv1a &f, const std::vector<Request> &reqs)
{
    for (const auto &r : reqs) {
        f.add(r.items);
        f.add(static_cast<std::uint64_t>(r.table_lookups.size()));
        for (const auto n : r.table_lookups)
            f.add(static_cast<int>(n));
        f.add(r.content_hash);
    }
}

TEST(Workload, GoldenStreamMatchesParent)
{
    const model::ModelSpec specs[] = {model::makeDrm1(), model::makeDrm2(),
                                      model::makeDrm3()};
    // Per model: stream at amplitude 0, stream at amplitude 0.3, pooling
    // estimate, diurnal epochs with context_pool 0, then 256.
    const std::uint64_t expected[3][5] = {
        {0x76695a4bb245106cULL, 0x815b233f27ed1d64ULL, 0xf0d6fc86b6043c51ULL,
         0x4ab8fbcfa8454173ULL, 0xac5fc90bacd269dcULL},
        {0x4d7f1455c43ff947ULL, 0x23d7d8aca044832bULL, 0xd0af0c7885ba5a4bULL,
         0xf16478b1b2e08a58ULL, 0xc53a7818d166cb01ULL},
        {0x64bf9f2f59fcd454ULL, 0x5645709ac1051edaULL, 0xbfdd8b8ec0698718ULL,
         0x65b2f59033ae1f16ULL, 0x3113b4f4ac64be2eULL},
    };
    for (int m = 0; m < 3; ++m) {
        const auto &spec = specs[m];
        std::uint64_t got[5];
        for (int a = 0; a < 2; ++a) {
            RequestGenerator gen(spec,
                                 GeneratorConfig{1234, a == 0 ? 0.0 : 0.3});
            stats::Fnv1a f;
            foldRequests(f, gen.generate(2000));
            got[a] = f.h;
        }
        {
            const RequestGenerator gen(spec, GeneratorConfig{77, 0.0});
            stats::Fnv1a f;
            for (const double p : gen.estimatePoolingFactors(1000))
                f.add(p);
            got[2] = f.h;
        }
        for (int pool = 0; pool < 2; ++pool) {
            workload::DiurnalLoadConfig dl;
            dl.bursts_per_epoch = 1.5;
            dl.net_mix_amplitude = 0.2;
            dl.context_pool = pool == 0 ? 0 : 256;
            const workload::DiurnalLoadModel load(spec, dl);
            stats::Fnv1a f;
            for (int e = 0; e < 24; ++e) {
                f.add(load.burstCount(e));
                f.add(load.realizedQps(e));
            }
            for (int e = 0; e < 4; ++e)
                foldRequests(f, load.epochRequests(e, 300));
            got[3 + pool] = f.h;
        }
        for (int k = 0; k < 5; ++k)
            EXPECT_EQ(got[k], expected[m][k])
                << "model " << m << " case " << k << ": got 0x" << std::hex
                << got[k];
    }
}

} // namespace
