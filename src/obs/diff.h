/**
 * @file
 * Differential critical-path attribution: explain *why* a latency
 * metric moved between two runs, not just that it did.
 *
 * The paper's contribution is per-stage attribution of serving latency;
 * the regression gate (obs/regression_gate.h) detects that an E2E or
 * P99 metric shifted between a committed baseline and a fresh run. This
 * module closes the loop between the two: given both runs' critical
 * paths (or their flattened artifact rows), it produces a stage x shard
 * delta table over the paper's decomposition buckets (Queue / Compute /
 * Serde / Network / Wait / Other), names the stage responsible for the
 * largest share of the shift, and — when histogram exemplars are wired
 * — surfaces the concrete exemplar request pair behind the worst
 * bucket so the investigation starts from two retained traces instead
 * of two aggregates.
 *
 * Two entry layers:
 *
 *  - **In-memory** (diffAttribution): full per-shard resolution from
 *    two runs' criticalPaths() output, with optional EngineProfile
 *    secondaries (per-tag simulator event/wall deltas) and tail
 *    exemplar requests. Only the tests drive it (the serving-replay
 *    regression test in tests/trace_sampling_test.cc).
 *  - **Artifact** (explainArtifacts): gate-side resolution from two
 *    JSONL artifact rows using the `path_<bucket>_ns` mean-attribution
 *    fields bench_sim_throughput emits (per-shard detail is not in the
 *    artifact; the table collapses to stage rows). This is what
 *    `bench_regression_gate --explain` drives on failure.
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/critical_path.h"
#include "obs/regression_gate.h"
#include "sim/engine.h"

namespace dri::obs {

/** One (stage, shard) cell of a run's critical-path attribution. */
struct StageCell
{
    PathBucket bucket = PathBucket::Other;
    std::int16_t shard = kMainShard;
    sim::Duration total_ns = 0;  //!< summed attributed time
    std::uint64_t segments = 0;  //!< path segments contributing
};

/** Per-run stage x shard attribution table (deterministic order). */
struct StageTable
{
    std::uint64_t requests = 0;
    sim::Duration total_ns = 0; //!< summed path totals (== summed e2e)
    std::vector<StageCell> cells; //!< (bucket, shard) ascending

    const StageCell *find(PathBucket bucket, std::int16_t shard) const;
};

/** Build the attribution table from one run's critical paths. */
StageTable buildStageTable(const std::vector<CriticalPath> &paths);

/** One row of the differential table. */
struct StageDelta
{
    PathBucket bucket = PathBucket::Other;
    /** kMainShard rows cover main-shard time; >= 0 rows are per-shard.
     *  Artifact-layer rows use shard == kAllShards (no shard detail). */
    std::int16_t shard = kMainShard;
    double base_ns = 0.0; //!< per-request mean attribution, baseline
    double cur_ns = 0.0;  //!< per-request mean attribution, current

    double delta() const { return cur_ns - base_ns; }
};

/** Shard value for artifact-layer rows (no per-shard detail). */
constexpr std::int16_t kAllShards = -2;

/** Optional per-tag simulator-profile secondary row. */
struct ProfileDelta
{
    std::string tag;
    double base_events = 0.0;
    double cur_events = 0.0;
};

/** The explanation: who moved, by how much, and the trace pair. */
struct AttributionReport
{
    /** Rows sorted by |delta| descending (ties: bucket then shard). */
    std::vector<StageDelta> rows;
    /** Stage with the largest aggregate positive delta. */
    PathBucket blamed = PathBucket::Other;
    /** blamed stage's share of the total positive delta (0..1). */
    double blamed_share = 0.0;
    /** Per-request mean E2E in each run (ns). */
    double base_e2e_ns = 0.0;
    double cur_e2e_ns = 0.0;
    /** Simulator per-tag secondaries (empty without profiles). */
    std::vector<ProfileDelta> profile_rows;
    /** Exemplar request pair for the worst bucket (0 = unknown). */
    std::uint64_t base_exemplar_request = 0;
    std::uint64_t cur_exemplar_request = 0;
    /** True when attribution inputs were actually present. */
    bool has_attribution = false;

    /** One-line verdict ("serde +31.2us/req (78% of +40.1us e2e)"). */
    std::string headline() const;
};

/** Inputs for one side of the in-memory diff. */
struct RunAttribution
{
    const std::vector<CriticalPath> *paths = nullptr; //!< required
    const sim::EngineProfile *profile = nullptr;      //!< optional
    /** Tail exemplar request id (e.g. Histogram::tailExemplar). */
    std::uint64_t tail_exemplar_request = 0;
};

/** Full-resolution differential attribution between two runs. */
AttributionReport diffAttribution(const RunAttribution &base,
                                  const RunAttribution &current);

/**
 * Gate-side differential attribution from two matched artifact rows,
 * using `path_<bucket>_ns` (per-request mean attribution) and
 * `tail_exemplar_request` fields when present. Rows lacking path
 * fields produce has_attribution == false (the gate then reports that
 * the artifact carries no attribution rather than guessing).
 */
AttributionReport explainArtifacts(const ArtifactRow &base,
                                   const ArtifactRow &current);

/**
 * Human-readable attribution report: the headline, the delta table
 * (largest movers first), profile secondaries, and the exemplar pair.
 */
void writeAttributionReport(std::ostream &os,
                            const AttributionReport &report);

} // namespace dri::obs
