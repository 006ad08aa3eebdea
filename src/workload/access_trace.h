/**
 * @file
 * Embedding-table access traces (Section IX): the paper points academics
 * at trace-driven experimentation — "Bandana used embedding table access
 * traces, which can be collected offline, to reduce effective DRAM
 * requirements... explorations [of] table placement and frequency-based
 * caching are also valuable directions enabled with trace-based analyses."
 *
 * This module records per-table access streams from generated requests
 * (with Zipf-skewed row ids), serializes them to a compact text format,
 * reads them back, and computes the statistics such studies start from:
 * per-table access counts, row popularity skew, and working-set curves
 * (unique rows touched vs. accesses), which directly feed cache-sizing
 * decisions.
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/model_spec.h"
#include "stats/distributions.h"
#include "stats/flat_hash.h"
#include "stats/hash.h"
#include "stats/rng.h"
#include "workload/request_generator.h"

namespace dri::workload {

/** One recorded embedding access. */
struct AccessRecord
{
    std::uint64_t request_id = 0;
    int table_id = 0;
    std::int64_t row = 0;
};

/** An offline embedding-access trace. */
class AccessTrace
{
  public:
    AccessTrace() = default;

    void add(const AccessRecord &record) { records_.push_back(record); }
    void reserve(std::size_t n) { records_.reserve(n); }
    const std::vector<AccessRecord> &records() const { return records_; }
    std::size_t size() const { return records_.size(); }

    /** Serialize as one "request table row" line per access. */
    void write(std::ostream &os) const;

    /** Parse the format produced by write(); returns false on malformed
     *  input. Throws std::invalid_argument when `out` is null. */
    static bool read(std::istream &is, AccessTrace *out);

    /** Accesses per table, indexed by table id. */
    std::vector<std::int64_t> accessCounts(std::size_t num_tables) const;

    /**
     * Working-set curve for one table: element i is the number of
     * *distinct* rows touched within the first (i+1) * stride accesses to
     * that table. Concave growth indicates cacheable popularity skew.
     * Throws std::invalid_argument when `stride` is 0.
     */
    std::vector<std::int64_t> workingSetCurve(int table_id,
                                              std::size_t stride) const;

    /**
     * Fraction of a table's accesses captured by its hottest `top_n`
     * rows — the quantity that justifies frequency-based caching.
     */
    double topRowCoverage(int table_id, std::size_t top_n) const;

  private:
    std::vector<AccessRecord> records_;
};

/**
 * Distinct-row footprint of a trace: rows counted per (table, row) pair,
 * bytes via each table's stored row size — the cacheable universe that
 * capacity fractions and analytic-vs-measured comparisons are taken
 * against. Records naming tables outside the spec are ignored, matching
 * TieredCacheSim::replay.
 */
struct TraceFootprint
{
    std::int64_t distinct_rows = 0;
    std::int64_t universe_bytes = 0;
};

/**
 * Incremental distinct-row accumulator behind traceFootprint(): one
 * open-addressing row set per table, fed one access at a time, so a
 * footprint can be taken over a generated stream that is never stored.
 */
class FootprintAccumulator
{
  public:
    explicit FootprintAccumulator(const model::ModelSpec &spec);

    /**
     * Count one access. Returns the stored bytes the row adds to the
     * universe: its row size the first time (table, row) is seen, 0 on a
     * repeat or for a table outside the spec.
     */
    std::int64_t
    add(const AccessRecord &rec)
    {
        if (rec.table_id < 0 ||
            static_cast<std::size_t>(rec.table_id) >= rows_.size())
            return 0;
        const auto t = static_cast<std::size_t>(rec.table_id);
        if (!rows_[t].insert(rec.row, true))
            return 0;
        ++footprint_.distinct_rows;
        footprint_.universe_bytes += row_bytes_[t];
        return row_bytes_[t];
    }

    const TraceFootprint &footprint() const { return footprint_; }

  private:
    struct RowHash
    {
        std::size_t
        operator()(std::int64_t row) const
        {
            return static_cast<std::size_t>(
                stats::mix64(static_cast<std::uint64_t>(row)));
        }
    };

    std::vector<std::int64_t> row_bytes_;
    std::vector<stats::FlatHashMap<std::int64_t, bool, RowHash>> rows_;
    TraceFootprint footprint_;
};

TraceFootprint traceFootprint(const model::ModelSpec &spec,
                              const AccessTrace &trace);

/**
 * The row popularity rank `rank` maps to in a table of `rows` rows: a
 * fixed multiplicative hash, so the same rank is always the same row.
 */
inline std::int64_t
rowOfRank(std::size_t rank, std::int64_t rows)
{
    return static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(rank + 1) * 0x9e3779b97f4a7c15ULL) %
        static_cast<std::uint64_t>(rows));
}

/**
 * Generate the accesses recordTrace() records, in the same order, and
 * hand each to `fn(const AccessRecord &)` instead of storing it. Row ids
 * within each table follow a Zipf(popularity_skew) distribution over a
 * bounded popularity universe of 4096 ranks, mapped to rows by
 * rowOfRank(), so popular rows are stable across requests.
 * The stream is a pure function of its arguments: calling it twice
 * yields the same records, which is what lets a consumer make several
 * passes without a stored trace. Throws std::invalid_argument when a
 * request's lookup vector does not match the spec's tables.
 */
template <class Fn>
void
forEachAccess(const model::ModelSpec &spec,
              const std::vector<Request> &requests, double popularity_skew,
              std::uint64_t seed, Fn &&fn)
{
    stats::Rng rng(seed);
    constexpr std::size_t kRanks = 4096;
    const stats::ZipfSampler zipf(kRanks, popularity_skew);

    for (const auto &req : requests) {
        if (req.table_lookups.size() != spec.tables.size())
            throw std::invalid_argument(
                "forEachAccess: request lookups do not match the spec");
        for (std::size_t t = 0; t < spec.tables.size(); ++t) {
            const std::int64_t rows = spec.tables[t].rows;
            for (std::int32_t k = 0; k < req.table_lookups[t]; ++k)
                fn(AccessRecord{req.id, static_cast<int>(t),
                                rowOfRank(zipf.sample(rng), rows)});
        }
    }
}

/**
 * Record a trace by expanding requests into row accesses: the stored
 * form of forEachAccess().
 */
AccessTrace recordTrace(const model::ModelSpec &spec,
                        const std::vector<Request> &requests,
                        double popularity_skew, std::uint64_t seed);

/**
 * Parameters of the synthetic mixed recency/frequency trace — the
 * workload that separates adaptive eviction (ARC) from the pure-recency
 * and pure-frequency policies it interpolates between.
 */
struct MixedTraceConfig
{
    std::size_t accesses = 60000;
    int table_id = 0;
    /**
     * Fraction of accesses drawn from the *recency* component: a dense
     * working-set window that drifts forward one row every drift_stride
     * accesses, so rows are re-referenced heavily while the window covers
     * them and never again after it passes. 0 = pure frequency (static
     * Zipf), 1 = pure recency.
     */
    double recency_fraction = 0.5;
    std::size_t window_rows = 512;
    std::size_t drift_stride = 8;
    /** Frequency component: static Zipf over a bounded rank universe. */
    double zipf_skew = 0.8;
    std::size_t zipf_ranks = 4096;
    std::uint64_t seed = 1;
};

/**
 * Synthesize a single-table trace blending a drifting-window recency
 * stream with a static-Zipf frequency stream (per MixedTraceConfig). The
 * two components address disjoint row ranges of the table, so their hit
 * opportunities never alias. Used by the ARC property tests and
 * examples/cache_v2_study. Throws std::invalid_argument when
 * config.table_id names no table of the spec.
 */
AccessTrace synthesizeMixedTrace(const model::ModelSpec &spec,
                                 const MixedTraceConfig &config);

} // namespace dri::workload
