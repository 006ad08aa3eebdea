/**
 * @file
 * Performance-contract properties of the simulator core. These are the
 * tests the perf-sensitive headers cite:
 *
 *  - steady-state event scheduling performs ZERO heap allocations per
 *    event (global operator-new counting around a warmed engine), and
 *    the serving closures fit InlineFn's inline buffer;
 *  - stats::Mt64 is output-identical to std::mt19937_64 at every seed
 *    and draw count, including across twist-block boundaries and under
 *    std:: distribution adapters (the contract mt64.h declares);
 *  - stats::Rng's hand-rolled draw helpers (uniform, gaussian,
 *    exponential, bernoulli) are bit-identical to per-call-constructed
 *    libstdc++ distribution objects over the same engine stream (the
 *    contract rng.h declares), and the branch-free word-to-double
 *    conversion under them equals the plain cast at every edge word;
 *  - fleet::ParallelSweep produces byte-identical ledgers (simulation
 *    AND telemetry fingerprints) at thread counts {1, 2, 8};
 *  - an untraced serving replay keeps no per-request or per-RPC state:
 *    the live heap it leaves behind, net of the returned RequestStats,
 *    does not grow with the number of requests (live bytes counted by
 *    the same operator-new replacement);
 *  - the smoke fleet study's set-up — which measures its shard cache
 *    models over a ~13.6M-access stream — peaks at a bounded live heap,
 *    so the stream is never stored (peak live bytes, same counter).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <random>
#include <vector>

#include "core/serving.h"
#include "core/strategies.h"
#include "fleet/parallel_sweep.h"
#include "fleet/study.h"
#include "model/generators.h"
#include "sim/engine.h"
#include "stats/hash.h"
#include "stats/mt64.h"
#include "stats/rng.h"
#include "workload/request_generator.h"

// ---------------------------------------------------------------------------
// Global allocation counter. Every operator-new in this binary funnels
// through here; tests read the counters around a region to prove the
// region allocates nothing, or how many bytes it left live. Each block
// carries its requested size in a header one max_align_t wide, so the
// pointer handed out keeps malloc's alignment.
// ---------------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_news{0};
std::atomic<std::int64_t> g_live_bytes{0};
/** High-water mark of g_live_bytes; tests lower it to reset. */
std::atomic<std::int64_t> g_peak_live_bytes{0};

constexpr std::size_t kHeader = alignof(std::max_align_t);

void *
countedAlloc(std::size_t n)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    auto *base = static_cast<unsigned char *>(std::malloc(kHeader + n));
    if (base == nullptr)
        throw std::bad_alloc();
    std::memcpy(base, &n, sizeof n);
    const std::int64_t live =
        g_live_bytes.fetch_add(static_cast<std::int64_t>(n),
                               std::memory_order_relaxed) +
        static_cast<std::int64_t>(n);
    std::int64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_peak_live_bytes.compare_exchange_weak(
               peak, live, std::memory_order_relaxed))
    {
    }
    return base + kHeader;
}

void
countedFree(void *p)
{
    if (p == nullptr)
        return;
    auto *base = static_cast<unsigned char *>(p) - kHeader;
    std::size_t n = 0;
    std::memcpy(&n, base, sizeof n);
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(n),
                           std::memory_order_relaxed);
    std::free(base);
}

} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

void
operator delete(void *p) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    countedFree(p);
}

namespace {

using namespace dri;

// ---------------------------------------------------------------------------
// Zero steady-state allocations per event.
// ---------------------------------------------------------------------------

/** A self-rescheduling event: the shape of the serving hot path's
 *  closures (a pointer, a couple of scalars — far under the inline
 *  cap). */
struct Chain
{
    sim::Engine *eng;
    int left;
    std::uint64_t *sink;

    void
    operator()() const
    {
        *sink += static_cast<std::uint64_t>(left);
        if (left > 0)
            eng->schedule(100, sim::kEvTimer, Chain{eng, left - 1, sink});
    }
};

TEST(SimPerf, SteadyStateSchedulingAllocatesNothing)
{
    sim::Engine eng;
    std::uint64_t sink = 0;
    constexpr int kChains = 64;

    // Warm-up: grow the slot arena and the ready-queue vector to their
    // steady footprint (the pending high-water mark below never exceeds
    // this phase's).
    for (int c = 0; c < kChains; ++c)
        eng.schedule(c, sim::kEvTimer, Chain{&eng, 50, &sink});
    eng.run();

    const std::uint64_t heap_fallbacks0 = sim::inlineFnHeapAllocations();
    const std::uint64_t news0 = g_news.load(std::memory_order_relaxed);

    // Steady state: 64 concurrent chains x 200 steps = 12,864 events
    // scheduled, dispatched, and recycled through the arena free list.
    for (int c = 0; c < kChains; ++c)
        eng.schedule(c, sim::kEvTimer, Chain{&eng, 200, &sink});
    const std::size_t executed = eng.run();

    const std::uint64_t news1 = g_news.load(std::memory_order_relaxed);
    EXPECT_EQ(executed, static_cast<std::size_t>(kChains * 201));
    EXPECT_EQ(news1 - news0, 0u)
        << "steady-state scheduling reached operator new";
    EXPECT_EQ(sim::inlineFnHeapAllocations() - heap_fallbacks0, 0u)
        << "a hot-path closure outgrew InlineFn's inline buffer";
    EXPECT_EQ(eng.profile().heap_callbacks, 0u);
    EXPECT_GT(sink, 0u);
}

// ---------------------------------------------------------------------------
// Mt64 == std::mt19937_64, bit for bit.
// ---------------------------------------------------------------------------

TEST(SimPerf, Mt64MatchesStdMt19937_64)
{
    const std::uint64_t seeds[] = {0ull, 1ull, 5489ull,
                                   0x9e3779b97f4a7c15ull, ~0ull};
    for (const std::uint64_t seed : seeds) {
        // Fork-like short streams at every length 0..40: the common
        // case is a freshly forked engine drawn a handful of times, so
        // lazy seeding must match at every cutoff.
        for (int k = 0; k <= 40; ++k) {
            std::mt19937_64 ref(seed);
            stats::Mt64 mine(seed);
            for (int i = 0; i < k; ++i)
                ASSERT_EQ(ref(), mine())
                    << "seed=" << seed << " k=" << k << " i=" << i;
        }
        // One long stream crossing several 312-word twist blocks.
        std::mt19937_64 ref(seed);
        stats::Mt64 mine(seed);
        for (int i = 0; i < 312 * 5 + 17; ++i)
            ASSERT_EQ(ref(), mine()) << "seed=" << seed << " i=" << i;

        // Interop: std:: distribution adapters over Mt64 see the same
        // variates as over std::mt19937_64.
        std::mt19937_64 r2(seed);
        stats::Mt64 m2(seed);
        for (int i = 0; i < 1000; ++i) {
            ASSERT_EQ(std::normal_distribution<double>(0, 1)(r2),
                      std::normal_distribution<double>(0, 1)(m2))
                << i;
            ASSERT_EQ(std::uniform_real_distribution<double>(0, 1)(r2),
                      std::uniform_real_distribution<double>(0, 1)(m2))
                << i;
        }
    }
}

// ---------------------------------------------------------------------------
// canonicalFromWord == the plain cast, at the words where rounding bites.
// ---------------------------------------------------------------------------

TEST(SimPerf, CanonicalMatchesCastAtEdgeWords)
{
    const auto viaCast = [](std::uint64_t w) {
        const double r = static_cast<double>(w) * 0x1p-64;
        return r >= 1.0 ? std::nextafter(1.0, 0.0) : r;
    };
    constexpr std::uint64_t k53 = std::uint64_t{1} << 53;
    constexpr std::uint64_t k63 = std::uint64_t{1} << 63;
    constexpr std::uint64_t k10 = std::uint64_t{1} << 10;
    const std::uint64_t edges[] = {
        0, 1, k53 - 1, k53, k53 + 1, k63 - 1, k63, k63 + 1,
        // Round-to-even ties just above 2^63, one to each neighbour.
        k63 + k10, k63 + 3 * k10,
        // The top of the range: the last word that rounds down, then the
        // first that rounds up to 2^64 (clamped below 1).
        ~std::uint64_t{0} - k10, ~std::uint64_t{0} - k10 + 1,
        ~std::uint64_t{0}};
    for (const std::uint64_t w : edges)
        ASSERT_EQ(stats::canonicalFromWord(w), viaCast(w)) << "w=" << w;
    EXPECT_LT(stats::canonicalFromWord(~std::uint64_t{0}), 1.0);

    // SplitMix64 words with the top bit on: the half gcc's cast branches
    // to, and the half where rounding can carry.
    std::uint64_t state = 0x5eed;
    for (int i = 0; i < 1000000; ++i) {
        state += 0x9e3779b97f4a7c15ULL;
        const std::uint64_t w = stats::mix64(state) | k63;
        ASSERT_EQ(stats::canonicalFromWord(w), viaCast(w))
            << "w=" << w << " i=" << i;
    }
}

// ---------------------------------------------------------------------------
// Rng draw helpers == per-call std:: distribution objects.
// ---------------------------------------------------------------------------

TEST(SimPerf, DrawHelpersMatchStdDistributions)
{
    const std::uint64_t seeds[] = {1ull, 42ull, 5489ull, 0xdeadbeefull};
    for (const std::uint64_t seed : seeds) {
        // uniform() == generate_canonical: one engine word scaled by
        // 2^-64 with the rounds-to-1.0 edge clamped below 1.
        {
            std::mt19937_64 ref(seed);
            stats::Rng rng(seed);
            for (int i = 0; i < 200000; ++i)
                ASSERT_EQ(
                    std::uniform_real_distribution<double>(0.0, 1.0)(ref),
                    rng.uniform())
                    << "seed=" << seed << " i=" << i;
        }
        {
            std::mt19937_64 ref(seed);
            stats::Rng rng(seed);
            for (int i = 0; i < 50000; ++i) {
                const double lo = -3.0 * (i % 4);
                const double hi = lo + 0.5 + (i % 11);
                ASSERT_EQ(
                    std::uniform_real_distribution<double>(lo, hi)(ref),
                    rng.uniform(lo, hi))
                    << "seed=" << seed << " i=" << i;
            }
        }
        // gaussian() == a normal_distribution constructed per call
        // (no cached second deviate), both plain and (mean, stddev).
        {
            std::mt19937_64 ref(seed);
            stats::Rng rng(seed);
            for (int i = 0; i < 50000; ++i)
                ASSERT_EQ(std::normal_distribution<double>(0.0, 1.0)(ref),
                          rng.gaussian())
                    << "seed=" << seed << " i=" << i;
        }
        {
            std::mt19937_64 ref(seed);
            stats::Rng rng(seed);
            for (int i = 0; i < 50000; ++i) {
                const double mean = (i % 7) * 1.5;
                const double sd = 0.1 + (i % 5);
                ASSERT_EQ(std::normal_distribution<double>(mean, sd)(ref),
                          rng.gaussian(mean, sd))
                    << "seed=" << seed << " i=" << i;
            }
        }
        {
            std::mt19937_64 ref(seed);
            stats::Rng rng(seed);
            for (int i = 0; i < 100000; ++i) {
                const double rate = 0.5 + (i % 9);
                ASSERT_EQ(std::exponential_distribution<double>(rate)(ref),
                          rng.exponential(rate))
                    << "seed=" << seed << " i=" << i;
            }
        }
        {
            std::mt19937_64 ref(seed);
            stats::Rng rng(seed);
            for (int i = 0; i < 100000; ++i) {
                const double p = (i % 100) / 100.0;
                ASSERT_EQ(std::bernoulli_distribution(p)(ref),
                          rng.bernoulli(p))
                    << "seed=" << seed << " i=" << i;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ParallelSweep: thread count never changes a ledger.
// ---------------------------------------------------------------------------

TEST(SimPerf, ParallelSweepFingerprintsInvariantAcrossThreadCounts)
{
    auto study = fleet::makeFleetStudy(/*smoke=*/true);
    study.fleet.epochs = 8; // determinism, not ledger quality
    const auto cells = fleet::sweepGrid({"static-peak", "reactive"},
                                        {0xd1a1, 0xd1a2});
    const auto runner = [&study](const fleet::SweepCell &cell) {
        return fleet::runStudyCell(study, cell);
    };

    const auto baseline = fleet::ParallelSweep(1).run(cells, runner);
    ASSERT_EQ(baseline.size(), cells.size());
    for (const int threads : {2, 8}) {
        const auto got = fleet::ParallelSweep(threads).run(cells, runner);
        ASSERT_EQ(got.size(), baseline.size()) << threads;
        for (std::size_t i = 0; i < baseline.size(); ++i) {
            EXPECT_EQ(got[i].cell.policy, baseline[i].cell.policy);
            EXPECT_EQ(got[i].cell.seed, baseline[i].cell.seed);
            EXPECT_EQ(got[i].stats.fingerprint(),
                      baseline[i].stats.fingerprint())
                << "threads=" << threads << " cell=" << i;
            EXPECT_EQ(got[i].stats.telemetryFingerprint(),
                      baseline[i].stats.telemetryFingerprint())
                << "threads=" << threads << " cell=" << i;
        }
    }
}

// ---------------------------------------------------------------------------
// Untraced serving memory does not grow with the replay.
// ---------------------------------------------------------------------------

/** Heap bytes owned by a replay's returned RequestStats vector. */
std::int64_t
ownedBytes(const std::vector<core::RequestStats> &stats)
{
    std::size_t owned = stats.capacity() * sizeof(core::RequestStats);
    for (const auto &s : stats)
        owned += (s.shard_op_ns.capacity() + s.shard_net_op_ns.capacity()) *
                 sizeof(double);
    return static_cast<std::int64_t>(owned);
}

TEST(SimPerf, UntracedServingMemoryDoesNotGrowWithRequests)
{
    // Serial untraced DRM1 on 8 shards: ~56 RPCs per request, one
    // request in flight. The same N requests are replayed once, then
    // three more times, so every pool has reached its high-water mark
    // after the first pass and any growth after that is state kept per
    // request or per RPC.
    constexpr std::size_t kN = 100;
    const auto spec = model::makeDrm1();
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{3, 0.0});
    const auto plan = core::makeCapacityBalanced(spec, 8);
    const auto requests = gen.generate(kN);

    const std::int64_t before = g_live_bytes.load();
    core::ServingSimulation sim(spec, plan, core::ServingConfig{});
    auto stats = sim.replaySerial(requests);
    ASSERT_EQ(stats.size(), kN);
    ASSERT_GT(stats.front().rpc_count, 0);
    const std::int64_t after_n =
        g_live_bytes.load() - before - ownedBytes(stats);
    for (int pass = 0; pass < 3; ++pass)
        stats = sim.replaySerial(requests);
    const std::int64_t after_4n =
        g_live_bytes.load() - before - ownedBytes(stats);
    // A kept ~80 B record per RPC would add ~1.3 MB over the 3N
    // extra requests.
    EXPECT_LE(after_4n - after_n, 0)
        << "retained " << after_n << " B after " << kN << " requests, "
        << after_4n << " B after " << 4 * kN;
}

// ---------------------------------------------------------------------------
// Fleet-study set-up heap stays bounded.
// ---------------------------------------------------------------------------

TEST(SimPerf, FleetStudySetupHeapIsBounded)
{
    // The smoke study's shard cache models replay ~13.6M accesses of
    // 24 B each. Stored (and then sliced per shard) that stream alone is
    // ~650 MB live; streamed, the build holds only the caches, the
    // distinct-row sets and small per-shard buffers.
    constexpr std::int64_t kBoundBytes = std::int64_t{64} << 20;
    const std::int64_t before = g_live_bytes.load();
    g_peak_live_bytes.store(before);
    const auto study = fleet::makeFleetStudy(/*smoke=*/true);
    const std::int64_t peak = g_peak_live_bytes.load() - before;
    ASSERT_EQ(study.serving.shard_cache_models.size(), 4u);
    EXPECT_LE(peak, kBoundBytes)
        << "makeFleetStudy(smoke) peaked at " << (peak >> 20)
        << " MB of live heap";
}

} // namespace
