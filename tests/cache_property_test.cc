/**
 * @file
 * Property tests tying the trace-driven cache simulator back to the
 * analytic paging model: the LRU hit rate measured on a Zipf trace must
 * converge to the closed-form dc::hitRate curve as the cache approaches
 * the working set (the degenerate case the subsystem generalizes), and
 * basic monotonicity/ordering properties must hold across policies. The
 * index-linked LRU is also checked, access by access, against a
 * std::list reference of the same policy.
 */
#include <gtest/gtest.h>

#include <list>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cache/tiered_sim.h"
#include "dc/paging.h"
#include "model/generators.h"
#include "workload/access_trace.h"
#include "workload/request_generator.h"

namespace {

using namespace dri;
using cache::Policy;

struct Fixture
{
    model::ModelSpec spec = model::makeCacheStudySpec();
    workload::AccessTrace trace;
    std::int64_t universe_bytes = 0;

    explicit Fixture(double skew, std::uint64_t seed = 17,
                     std::size_t n_requests = 600)
    {
        workload::RequestGenerator gen(spec,
                                       workload::GeneratorConfig{seed});
        trace = workload::recordTrace(spec, gen.generate(n_requests), skew,
                                      seed);
        universe_bytes = workload::traceFootprint(spec, trace).universe_bytes;
    }

    double
    hitRate(Policy policy, double fraction) const
    {
        const auto capacity = static_cast<std::int64_t>(
            fraction * static_cast<double>(universe_bytes));
        return cache::replayTrace(spec, trace, policy, capacity)
            .overallHitRate();
    }
};

TEST(CacheProperty, LruConvergesToAnalyticCurve)
{
    // The acceptance bar for the subsystem: at cache sizes approaching
    // the working set, simulated LRU reproduces the analytic skew curve
    // within 5% absolute (three sizes; the formula is the
    // frequency-stationary bound, which recency-based LRU approaches
    // from below as eviction pressure vanishes).
    const double skew = 0.6;
    const Fixture fx(skew);
    for (const double f : {0.75, 0.85, 0.95}) {
        const double analytic = dc::hitRate(f, skew);
        const double simulated = fx.hitRate(Policy::Lru, f);
        EXPECT_NEAR(simulated, analytic, 0.05)
            << "resident fraction " << f;
        // LRU never beats the frequency-stationary bound (small slack for
        // trace noise).
        EXPECT_LE(simulated, analytic + 0.01);
    }
}

TEST(CacheProperty, LruConvergesAcrossSkews)
{
    for (const double skew : {0.3, 0.8}) {
        const Fixture fx(skew);
        for (const double f : {0.8, 0.9}) {
            EXPECT_NEAR(fx.hitRate(Policy::Lru, f), dc::hitRate(f, skew),
                        0.05)
                << "skew " << skew << " fraction " << f;
        }
    }
}

TEST(CacheProperty, HitRateMonotoneInCapacity)
{
    const Fixture fx(0.6);
    for (const auto policy :
         {Policy::Lru, Policy::Lfu, Policy::TwoQueue}) {
        double prev = -1.0;
        for (const double f : {0.1, 0.2, 0.4, 0.8}) {
            const double h = fx.hitRate(policy, f);
            EXPECT_GE(h, prev) << cache::policyName(policy) << " at " << f;
            prev = h;
        }
        // Full-universe cache: only warmup-window evictions remain, so
        // the post-warmup hit rate is essentially perfect.
        EXPECT_GT(fx.hitRate(policy, 1.0), 0.99);
    }
}

TEST(CacheProperty, FrequencyPoliciesBeatLruAtSmallBudgets)
{
    // Static Zipf popularity is LFU's home turf; 2Q's protected queue
    // gets most of that benefit. This is the policy-dependent separation
    // the flat analytic coefficient cannot express.
    const Fixture fx(0.8);
    for (const double f : {0.05, 0.1, 0.2}) {
        const double lru = fx.hitRate(Policy::Lru, f);
        EXPECT_GT(fx.hitRate(Policy::Lfu, f), lru) << "fraction " << f;
        EXPECT_GT(fx.hitRate(Policy::TwoQueue, f), lru)
            << "fraction " << f;
    }
}

/**
 * Textbook LRU over std::list + std::unordered_map: the differential
 * reference for the index-linked LruCache. Same contract — lazy shrink,
 * oversized rows bypass, every eviction reported as (table, row, bytes).
 */
class ReferenceLru
{
  public:
    using Eviction = std::tuple<int, std::int64_t, std::int64_t>;

    explicit ReferenceLru(std::int64_t capacity) : capacity_(capacity) {}

    bool
    access(int table, std::int64_t row, std::int64_t bytes)
    {
        const auto key = std::make_pair(table, row);
        auto it = index_.find(key);
        if (it != index_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            return true;
        }
        if (bytes > capacity_)
            return false;
        while (used_ + bytes > capacity_) {
            const Entry victim = lru_.back();
            lru_.pop_back();
            index_.erase({victim.table, victim.row});
            used_ -= victim.bytes;
            evictions.emplace_back(victim.table, victim.row, victim.bytes);
        }
        lru_.push_front(Entry{table, row, bytes});
        index_[key] = lru_.begin();
        used_ += bytes;
        return false;
    }

    void setCapacity(std::int64_t capacity) { capacity_ = capacity; }
    std::int64_t used() const { return used_; }
    std::size_t resident() const { return index_.size(); }

    std::vector<Eviction> evictions;

  private:
    struct Entry
    {
        int table;
        std::int64_t row;
        std::int64_t bytes;
    };
    struct PairHash
    {
        std::size_t
        operator()(const std::pair<int, std::int64_t> &k) const
        {
            return std::hash<std::int64_t>{}(k.second) * 31u +
                   static_cast<std::size_t>(k.first);
        }
    };

    std::int64_t capacity_;
    std::int64_t used_ = 0;
    std::list<Entry> lru_; // front = most recently used
    std::unordered_map<std::pair<int, std::int64_t>,
                       std::list<Entry>::iterator, PairHash>
        index_;
};

TEST(CacheProperty, LruMatchesListReferenceAccessByAccess)
{
    const auto spec = model::makeShardedCacheStudySpec();
    // Two mixed recency/frequency streams on different tables,
    // interleaved, so keys collide on row id and differ by table.
    std::vector<workload::AccessRecord> stream;
    {
        workload::MixedTraceConfig a;
        a.accesses = 40000;
        a.table_id = 0;
        a.seed = 7;
        workload::MixedTraceConfig b = a;
        b.table_id = static_cast<int>(spec.tables.size()) - 1;
        b.recency_fraction = 0.2;
        b.seed = 8;
        const auto ta = workload::synthesizeMixedTrace(spec, a);
        const auto tb = workload::synthesizeMixedTrace(spec, b);
        for (std::size_t i = 0; i < a.accesses; ++i) {
            stream.push_back(ta.records()[i]);
            if (i % 3 == 0)
                stream.push_back(tb.records()[i]);
        }
    }
    // Uneven row sizes, fixed per row, so one miss can evict several.
    const auto bytesOf = [](const workload::AccessRecord &r) {
        return static_cast<std::int64_t>(64 + (r.row % 5) * 48);
    };

    const std::int64_t capacity = 96 * 1024;
    auto lru = cache::makeCache(Policy::Lru, capacity);
    ReferenceLru ref(capacity);
    std::vector<ReferenceLru::Eviction> evictions;
    lru->setEvictionHook(
        [&evictions](int table, std::int64_t row, std::int64_t bytes) {
            evictions.emplace_back(table, row, bytes);
        });

    const std::size_t n = stream.size();
    for (std::size_t i = 0; i < n; ++i) {
        // Lazy shrink to a third at 40%, grow back at 70%: the shrink is
        // paid by the next miss's eviction loop, several rows at once.
        if (i == n * 4 / 10) {
            lru->setCapacityBytes(capacity / 3);
            ref.setCapacity(capacity / 3);
        } else if (i == n * 7 / 10) {
            lru->setCapacityBytes(capacity);
            ref.setCapacity(capacity);
        }
        const auto &r = stream[i];
        const bool want = ref.access(r.table_id, r.row, bytesOf(r));
        ASSERT_EQ(lru->access(r.table_id, r.row, bytesOf(r)), want)
            << "access " << i;
        ASSERT_EQ(evictions.size(), ref.evictions.size()) << "access " << i;
        ASSERT_EQ(lru->usedBytes(), ref.used()) << "access " << i;
        ASSERT_EQ(lru->residentRows(), ref.resident()) << "access " << i;
    }
    EXPECT_EQ(evictions, ref.evictions);
    EXPECT_GT(ref.evictions.size(), n / 20); // the budget really binds
    // An oversized row bypasses both without touching the resident set.
    EXPECT_EQ(lru->access(0, 1, capacity + 1), ref.access(0, 1, capacity + 1));
    EXPECT_EQ(lru->residentRows(), ref.resident());
    const auto &last = stream.back();
    EXPECT_TRUE(lru->contains(last.table_id, last.row));
}

} // namespace
