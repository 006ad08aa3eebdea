/**
 * @file
 * Trace replay through a byte-budgeted embedding cache. TieredCacheSim is
 * the measurement half of the Bandana-style methodology the paper points
 * academics at: feed a recorded workload::AccessTrace through a DRAM-tier
 * cache and read off per-table hit/miss/eviction counts, instead of
 * trusting the closed-form skew curve in dc/paging. The resulting
 * CacheSimResult feeds CachedLookupModel, which converts hit rates into
 * the per-lookup cost coefficients the serving simulation consumes.
 */
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "cache/admission.h"
#include "cache/embedding_cache.h"
#include "model/model_spec.h"
#include "workload/access_trace.h"

namespace dri::cache {

/** Replay configuration. */
struct TieredCacheConfig
{
    Policy policy = Policy::Lru;
    /** DRAM-tier byte budget. */
    std::int64_t capacity_bytes = 0;
    /**
     * Leading fraction of the trace replayed to warm the cache before
     * counters engage, removing compulsory-miss bias from the reported
     * rates (0 = cold start; 0.5 is typical for stationarity studies).
     */
    double warmup_fraction = 0.0;
    /** Admission filter wrapped around the eviction policy. */
    Admission admission = Admission::None;
    /** TinyLFU doorkeeper parameters (used when admission == TinyLfu). */
    TinyLfuConfig tinylfu;
    /** Window + doorkeeper parameters (used when admission == WTinyLfu). */
    WTinyLfuConfig wtinylfu;
};

/** Post-warmup replay statistics. */
struct CacheSimResult
{
    CacheStats total;
    /** Indexed by table id; tables never accessed stay all-zero. */
    std::vector<CacheStats> per_table;

    double
    hitRate(int table) const
    {
        if (table < 0 || static_cast<std::size_t>(table) >= per_table.size())
            return 0.0;
        return per_table[static_cast<std::size_t>(table)].hitRate();
    }

    double overallHitRate() const { return total.hitRate(); }
};

/**
 * Replays access streams against one cache instance. The cache's resident
 * set persists across replays (counters reset each replay), so a trace
 * can be replayed twice for an explicit warm-start measurement.
 *
 * A replay is begin(n), n calls to access(), then finish(); replay() is
 * that loop over a stored trace. The incremental form lets a caller feed
 * a stream it never materializes — n, the stream's length, is all the
 * warm-up boundary needs up front.
 */
class TieredCacheSim
{
  public:
    TieredCacheSim(const model::ModelSpec &spec, TieredCacheConfig config);
    /** Pinned: a replay in progress has the cache's eviction hook
     *  holding `this`. */
    TieredCacheSim(const TieredCacheSim &) = delete;
    TieredCacheSim &operator=(const TieredCacheSim &) = delete;

    /** Replay the trace; returns post-warmup per-table statistics. */
    CacheSimResult replay(const workload::AccessTrace &trace);

    /**
     * Start a replay of an n-record stream: the first
     * round(warmup_fraction * n) records warm the cache uncounted.
     */
    void begin(std::size_t n);

    /**
     * Feed the stream's next record. Records naming tables outside the
     * model are skipped but still advance the stream position.
     */
    void
    access(const workload::AccessRecord &rec)
    {
        const std::size_t i = pos_++;
        if (i == warm_ && i > 0) {
            // Warmup boundary: discard counters, keep the resident set.
            cache_->resetStats();
            std::fill(evictions_.begin(), evictions_.end(), 0);
        }
        if (rec.table_id < 0 ||
            static_cast<std::size_t>(rec.table_id) >= row_bytes_.size())
            return; // trace rows for tables this model does not define
        const auto t = static_cast<std::size_t>(rec.table_id);
        const bool hit = cache_->access(rec.table_id, rec.row, row_bytes_[t]);
        if (i < warm_)
            return; // warm the resident set without counting
        auto &ts = result_.per_table[t];
        ++ts.accesses;
        if (hit)
            ++ts.hits;
        else
            ++ts.misses;
    }

    /**
     * End the replay begun by begin(); returns post-warmup statistics.
     * Throws std::logic_error unless exactly n records were fed.
     */
    CacheSimResult finish();

    const EmbeddingCache &cache() const { return *cache_; }

  private:
    TieredCacheConfig config_;
    /** Stored row bytes per table id, copied from the spec. */
    std::vector<std::int64_t> row_bytes_;
    std::unique_ptr<EmbeddingCache> cache_;

    // State of the replay in progress.
    CacheSimResult result_;
    /** Evictions attributed to the table losing the row. */
    std::vector<std::int64_t> evictions_;
    std::size_t n_ = 0;
    std::size_t warm_ = 0;
    std::size_t pos_ = 0;
};

/**
 * One-shot replay: build a cold cache of the given policy and byte budget,
 * replay the trace, return the post-warmup statistics. The single entry
 * point the bench, example, and property tests share, so their hit-rate
 * curves stay cross-comparable by construction.
 */
CacheSimResult replayTrace(const model::ModelSpec &spec,
                           const workload::AccessTrace &trace,
                           Policy policy, std::int64_t capacity_bytes,
                           double warmup_fraction = 0.5,
                           Admission admission = Admission::None);

} // namespace dri::cache
