/**
 * @file
 * Per-shard trace slicing: derive each sparse shard's access trace — and
 * from it a measured CachedLookupModel — from the rows the ShardingPlan
 * actually routes to it, instead of estimating every shard's locality
 * from one shared whole-model replay.
 *
 * The distinction matters exactly when sharding is skewed: a shard
 * holding the hot tables sees a more cacheable (more Zipf-concentrated)
 * access stream than a shard holding the long tail, so per-shard hit
 * rates legitimately diverge from the whole-model aggregate. Slices feed
 * ServingConfig::shard_cache_models, which already prices each shard's
 * gathers from its own model.
 *
 * The model build streams: it walks the access stream twice and stores
 * neither the stream nor any slice. Pass 1 routes every access through
 * shardFor() and collects each shard's access count (its warm-up
 * boundary) and distinct rows (its capacity). Pass 2 replays the same
 * stream, batching each shard's accesses into a small buffer that is
 * flushed into that shard's cache, so memory stays bounded by the caches
 * and the distinct-row sets, not by the trace length. The stream is
 * either a stored trace or regenerated by workload::forEachAccess — the
 * latter is how a study measures a multi-million-access workload without
 * recording it.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/lookup_model.h"
#include "cache/tiered_sim.h"
#include "core/sharding_plan.h"
#include "model/model_spec.h"
#include "workload/access_trace.h"

namespace dri::core {

/**
 * The shard a record routes to, the way the plan routes its lookup: whole
 * tables to their owning shard, split tables by `row % ways` in modulus
 * order (the ShardingPlan contract). Returns -1 for a table outside the
 * plan (or placed on no shard). A singular plan routes every record to
 * 0, the inline-SLS "shard".
 */
inline int
shardFor(const ShardingPlan &plan, const workload::AccessRecord &rec)
{
    if (plan.isSingular())
        return 0;
    const auto &assignments = plan.assignments();
    if (rec.table_id < 0 ||
        static_cast<std::size_t>(rec.table_id) >= assignments.size())
        return -1; // trace rows for tables this plan does not place
    const auto &shards =
        assignments[static_cast<std::size_t>(rec.table_id)].shards;
    if (shards.size() <= 1)
        return shards.empty() ? -1 : shards[0];
    const auto ways = static_cast<std::int64_t>(shards.size());
    const std::int64_t piece = ((rec.row % ways) + ways) % ways;
    return shards[static_cast<std::size_t>(piece)];
}

/**
 * Split a whole-model trace into one slice per sparse shard by
 * shardFor(). Records naming tables outside the plan are dropped,
 * matching TieredCacheSim::replay. A singular plan yields one slice
 * holding every record.
 */
std::vector<workload::AccessTrace>
sliceTraceByShard(const ShardingPlan &plan,
                  const workload::AccessTrace &trace);

/** How each shard's slice is replayed into a lookup model. */
struct ShardCacheOptions
{
    cache::Policy policy = cache::Policy::Lru;
    cache::Admission admission = cache::Admission::None;
    cache::TinyLfuConfig tinylfu;
    /**
     * Per-shard DRAM budget as a fraction of that shard's own slice
     * universe (proportional sizing: total budget tracks total traffic).
     */
    double capacity_fraction = 0.2;
    /**
     * Fixed byte budget per shard; overrides capacity_fraction when > 0.
     * This is machine-shaped sizing — every shard host has the same DRAM
     * regardless of the traffic routed at it — and is what makes skewed
     * plans visibly diverge.
     */
    std::int64_t capacity_bytes_per_shard = 0;
    double warmup_fraction = 0.5;
    cache::TierCosts costs;
};

/** Per-shard replay outcome: the models plus the evidence behind them. */
struct ShardCacheModels
{
    /**
     * One model per sparse shard, index-aligned with shard ids — plugs
     * directly into core::ServingConfig::shard_cache_models.
     */
    std::vector<std::shared_ptr<const cache::CachedLookupModel>> models;
    /** Full replay statistics per shard. */
    std::vector<cache::CacheSimResult> results;
    /** Distinct-row byte universe of each shard's slice. */
    std::vector<std::int64_t> slice_universe_bytes;

    /** Access-weighted hit rate across all shards' post-warmup windows. */
    double aggregateHitRate() const;
};

/**
 * Replay each shard's slice of the trace through its own byte-budgeted
 * cache — the streaming two-pass build, over the stored records. For a
 * singular plan the single "shard" is the main shard's inline SLS tier.
 */
ShardCacheModels
buildShardCacheModels(const model::ModelSpec &spec, const ShardingPlan &plan,
                      const workload::AccessTrace &trace,
                      const ShardCacheOptions &options);

/**
 * The same build over the accesses workload::recordTrace(spec, requests,
 * popularity_skew, seed) would record, generated twice by
 * workload::forEachAccess instead of stored. Equal, per shard and per
 * table, to building from the recorded trace.
 */
ShardCacheModels
buildShardCacheModels(const model::ModelSpec &spec, const ShardingPlan &plan,
                      const std::vector<workload::Request> &requests,
                      double popularity_skew, std::uint64_t seed,
                      const ShardCacheOptions &options);

} // namespace dri::core
