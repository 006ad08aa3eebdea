#include "core/trace_slicing.h"

#include <algorithm>
#include <cmath>
#include <deque>

namespace dri::core {

namespace {

std::size_t
sliceCount(const ShardingPlan &plan)
{
    return plan.isSingular() ? 1 : static_cast<std::size_t>(plan.numShards());
}

/**
 * Records a shard's cache is fed per flush in the replay pass: a run of
 * one shard's accesses keeps that cache's working set hot, where
 * accesses interleaved across every shard's cache would thrash them all.
 */
constexpr std::size_t kFlushRecords = 32 * 1024;

/**
 * The one shard cache-model build, over a record stream `forEachRecord`
 * walks identically on every call. Pass 1 sizes each shard: its stream
 * length fixes the warm-up boundary, its distinct-row universe the
 * capacity (a (table, row) routes to one shard, so one accumulator
 * serves all). Pass 2 replays each shard's records through its cache.
 */
template <class ForEachRecord>
ShardCacheModels
buildFromStream(const model::ModelSpec &spec, const ShardingPlan &plan,
                const ForEachRecord &forEachRecord,
                const ShardCacheOptions &options)
{
    const auto forEachRouted = [&](auto &&fn) {
        forEachRecord([&](const workload::AccessRecord &rec) {
            const int shard = shardFor(plan, rec);
            if (shard >= 0)
                fn(static_cast<std::size_t>(shard), rec);
        });
    };
    const std::size_t n_slices = sliceCount(plan);
    std::vector<std::size_t> length(n_slices, 0);
    ShardCacheModels out;
    out.slice_universe_bytes.assign(n_slices, 0);
    {
        workload::FootprintAccumulator distinct(spec);
        forEachRouted([&](std::size_t s, const workload::AccessRecord &rec) {
            ++length[s];
            out.slice_universe_bytes[s] += distinct.add(rec);
        });
    }

    std::deque<cache::TieredCacheSim> sims;
    std::vector<std::vector<workload::AccessRecord>> pending(n_slices);
    for (std::size_t s = 0; s < n_slices; ++s) {
        cache::TieredCacheConfig cfg;
        cfg.policy = options.policy;
        cfg.capacity_bytes =
            options.capacity_bytes_per_shard > 0
                ? options.capacity_bytes_per_shard
                : static_cast<std::int64_t>(std::llround(
                      options.capacity_fraction *
                      static_cast<double>(out.slice_universe_bytes[s])));
        cfg.warmup_fraction = options.warmup_fraction;
        cfg.admission = options.admission;
        cfg.tinylfu = options.tinylfu;
        sims.emplace_back(spec, cfg).begin(length[s]);
        pending[s].reserve(std::min(kFlushRecords, length[s]));
    }
    const auto flush = [&](std::size_t s) {
        for (const auto &rec : pending[s])
            sims[s].access(rec);
        pending[s].clear();
    };
    forEachRouted([&](std::size_t s, const workload::AccessRecord &rec) {
        pending[s].push_back(rec);
        if (pending[s].size() == kFlushRecords)
            flush(s);
    });

    for (std::size_t s = 0; s < n_slices; ++s) {
        flush(s);
        out.results.push_back(sims[s].finish());
        out.models.push_back(std::make_shared<cache::CachedLookupModel>(
            out.results.back(), options.costs));
    }
    return out;
}

} // namespace

std::vector<workload::AccessTrace>
sliceTraceByShard(const ShardingPlan &plan,
                  const workload::AccessTrace &trace)
{
    std::vector<workload::AccessTrace> slices(sliceCount(plan));
    for (const auto &rec : trace.records()) {
        const int shard = shardFor(plan, rec);
        if (shard >= 0)
            slices[static_cast<std::size_t>(shard)].add(rec);
    }
    return slices;
}

double
ShardCacheModels::aggregateHitRate() const
{
    std::int64_t accesses = 0, hits = 0;
    for (const auto &r : results) {
        accesses += r.total.accesses;
        hits += r.total.hits;
    }
    return accesses > 0
               ? static_cast<double>(hits) / static_cast<double>(accesses)
               : 0.0;
}

ShardCacheModels
buildShardCacheModels(const model::ModelSpec &spec,
                      const ShardingPlan &plan,
                      const workload::AccessTrace &trace,
                      const ShardCacheOptions &options)
{
    const auto walk = [&trace](auto &&fn) {
        for (const auto &rec : trace.records())
            fn(rec);
    };
    return buildFromStream(spec, plan, walk, options);
}

ShardCacheModels
buildShardCacheModels(const model::ModelSpec &spec,
                      const ShardingPlan &plan,
                      const std::vector<workload::Request> &requests,
                      double popularity_skew, std::uint64_t seed,
                      const ShardCacheOptions &options)
{
    const auto generate = [&](auto &&fn) {
        workload::forEachAccess(spec, requests, popularity_skew, seed, fn);
    };
    return buildFromStream(spec, plan, generate, options);
}

} // namespace dri::core
