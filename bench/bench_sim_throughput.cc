/**
 * @file
 * Simulator self-profiling bench: how fast does the discrete-event
 * engine itself run, and where does its host time go?
 *
 * Replays the canonical DRM2 capacity-balanced fan-out study with
 * engine profiling enabled and emits JSONL (grep "^{"): wall-clock
 * events/sec, per-subsystem event counts and callback-time shares
 * (main compute, sparse compute, wire, timers, grants, drivers), queue
 * high-water mark, and the span tracer's allocation count — the
 * baseline rows CI archives so simulator-performance regressions are
 * diffable across commits.
 *
 * The throughput number is the best of five untraced runs — shared
 * runners hiccup, and the minimum wall time is the honest estimate of
 * what the simulator can do. The reruns double as a determinism
 * self-check (byte-identical RequestStats fingerprints).
 *
 * Self-checking (exit 1 on violation):
 *  - the engine executed events and every one carries exactly one tag;
 *  - repeated runs produce byte-identical RequestStats fingerprints;
 *  - a disabled tracer performs zero heap appends (the zero-overhead
 *    contract);
 *  - tracing on vs off leaves the RequestStats stream fingerprint
 *    byte-identical (the pure-observer contract, checked here over the
 *    bench workload in addition to the stress-test grid).
 *
 * `--smoke` shrinks the stream for CI lanes.
 */
#include <chrono>
#include <cstring>
#include <iostream>

#include "bench_common.h"
#include "obs/critical_path.h"
#include "obs/sampler.h"
#include "obs/span_tracer.h"
#include "obs/timeseries.h"
#include "sched/capacity_search.h"
#include "stats/hash.h"
#include "stats/table_printer.h"

namespace {

using namespace dri;

std::uint64_t
fingerprint(const std::vector<core::RequestStats> &stats)
{
    // FNV-1a over the bit patterns of every latency-bearing stat field,
    // from the offset basis the committed baselines were pinned with.
    stats::Fnv1a fnv(1469598103934665603ULL);
    fnv.add(static_cast<std::uint64_t>(stats.size()));
    for (const auto &s : stats) {
        fnv.add(s.id);
        fnv.add(static_cast<std::uint64_t>(s.e2e));
        fnv.add(static_cast<std::uint64_t>(s.completion));
        fnv.add(static_cast<std::uint64_t>(s.queue_wait));
        fnv.add(static_cast<std::uint64_t>(s.rpc_count));
        fnv.add(static_cast<std::uint64_t>(s.hedges));
        fnv.add(static_cast<std::uint64_t>(s.hedge_wins));
        fnv.add(static_cast<std::uint64_t>(s.result_cache_hits));
        fnv.add(s.cpu_ops_ns);
        fnv.add(s.cpu_serde_ns);
        fnv.add(s.cpu_service_ns);
    }
    return fnv.h;
}

core::ServingConfig
benchConfig(obs::SpanTracer *tracer, obs::RollingHistogram *feed = nullptr)
{
    auto cfg = sched::hedgeStudyConfig(
        rpc::LoadBalancePolicy::LeastOutstanding, 3, /*hedged=*/true);
    cfg.result_cache.enabled = true;
    cfg.result_cache.ttl_ns = 50 * sim::kMillisecond;
    cfg.tracer = tracer;
    cfg.latency_feed = feed;
    return cfg;
}

struct RunResult
{
    std::uint64_t stats_fingerprint = 0;
    sim::EngineProfile profile;
    double wall_s = 0.0;
};

RunResult
runOnce(const model::ModelSpec &spec, const core::ShardingPlan &plan,
        const std::vector<workload::Request> &requests,
        obs::SpanTracer *tracer, obs::RollingHistogram *feed = nullptr)
{
    core::ServingSimulation sim(spec, plan, benchConfig(tracer, feed));
    sim.engine().enableProfiling(true);
    const auto t0 = std::chrono::steady_clock::now();
    const auto stats = sim.replayOpenLoop(requests, 1500.0);
    const auto t1 = std::chrono::steady_clock::now();
    RunResult r;
    r.stats_fingerprint = fingerprint(stats);
    r.profile = sim.engine().profile();
    r.wall_s = std::chrono::duration<double>(t1 - t0).count();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    using stats::TablePrinter;
    const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    const std::size_t n_requests = smoke ? 600 : 4000;

    std::cout << stats::banner(
        "Simulator throughput: events/sec + per-subsystem host time");

    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    const auto requests = bench::standardRequests(spec, n_requests);

    // Untraced runs: the throughput baseline. Best-of-N wall time so a
    // scheduler hiccup on a shared runner does not masquerade as a
    // simulator regression; the reruns double as a determinism check
    // (byte-identical fingerprints). The disabled tracer rides along to
    // prove the zero-overhead contract on the real workload.
    obs::SpanTracer disabled(/*enabled=*/false);
    constexpr int kReps = 5;
    auto base = runOnce(spec, plan, requests, &disabled);
    bool reruns_identical = true;
    for (int rep = 1; rep < kReps; ++rep) {
        auto r = runOnce(spec, plan, requests, &disabled);
        reruns_identical &= r.stats_fingerprint == base.stats_fingerprint;
        if (r.wall_s < base.wall_s)
            base = r;
    }
    // Traced run: same seed, same schedule, spans recorded.
    obs::SpanTracer tracer;
    const auto traced = runOnce(spec, plan, requests, &tracer);

    // Sampled run: tracer + tail sampler + rolling latency feed. One
    // huge window bucket makes the tail threshold a running quantile
    // over the whole replay and keeps every exemplar queryable at the
    // end. The sampled fingerprint must STILL equal the untraced one —
    // the observation-purity contract now covers retention too.
    obs::SpanTracer sampled_tracer;
    obs::SamplerConfig sampler_cfg;
    sampler_cfg.reservoir_size = 16;
    sampler_cfg.retained_byte_budget = 512u << 10;
    obs::TraceSampler sampler(sampler_cfg);
    sampled_tracer.setSampler(&sampler);
    obs::WindowConfig feed_cfg;
    feed_cfg.horizon_s = 1e6;
    obs::RollingHistogram feed(feed_cfg);
    feed.setExemplarCapacity(2);
    sampler.setLatencyFeed(&feed);
    const auto sampled =
        runOnce(spec, plan, requests, &sampled_tracer, &feed);

    // Per-request mean critical-path attribution from the traced run —
    // the path_<bucket>_ns artifact fields the regression gate's
    // --explain mode diffs to blame a stage.
    const auto paths = obs::criticalPaths(tracer.spans());
    const auto path_profile = obs::profilePaths(paths);

    const auto &prof = base.profile;
    const double events_per_sec =
        base.wall_s > 0.0 ? static_cast<double>(prof.executed) / base.wall_s
                          : 0.0;

    auto row = bench::JsonRow("sim_throughput");
    row.field("requests", static_cast<std::uint64_t>(n_requests))
        .field("events_executed", prof.executed)
        .field("events_scheduled", prof.scheduled)
        .field("events_per_sec", events_per_sec)
        .field("wall_s", base.wall_s)
        .field("peak_pending", static_cast<std::uint64_t>(prof.peak_pending))
        .field("callback_wall_ns", static_cast<std::int64_t>(prof.wall_ns))
        .field("traced_wall_s", traced.wall_s)
        .field("traced_spans",
               static_cast<std::uint64_t>(tracer.spans().size()))
        .field("tracer_allocations", tracer.allocations())
        .field("disabled_tracer_allocations", disabled.allocations())
        .field("sampled_wall_s", sampled.wall_s)
        .field("sampler_retained_traces",
               static_cast<std::uint64_t>(sampler.retained().size()))
        .field("sampler_retained_bytes",
               static_cast<std::uint64_t>(sampler.retainedBytes()))
        .field("sampler_recycled", sampler.stats().recycled)
        .field("sampler_arena_slots",
               static_cast<std::uint64_t>(sampler.arenaSlots()));
    for (std::size_t b = 0; b < obs::kPathBucketCount; ++b) {
        const auto bucket = static_cast<obs::PathBucket>(b);
        const double mean_ns =
            path_profile.requests > 0
                ? static_cast<double>(path_profile.bucket_ns[b]) /
                      static_cast<double>(path_profile.requests)
                : 0.0;
        row.field(std::string("path_") + obs::pathBucketName(bucket) +
                      "_ns",
                  mean_ns);
    }
    const obs::Histogram feed_hist = feed.merged(0.0);
    if (const obs::Exemplar *tail = feed_hist.tailExemplar()) {
        row.field("tail_exemplar_request", tail->request_id)
            .field("tail_exemplar_value",
                   static_cast<std::int64_t>(tail->value))
            .field("tail_exemplar_retained",
                   static_cast<std::uint64_t>(tail->retained ? 1 : 0));
    }
    for (std::size_t t = 0; t < sim::kEvTagCount; ++t) {
        const auto tag = static_cast<sim::EventTag>(t);
        row.field(std::string("events_") + sim::eventTagName(tag),
                  prof.tag_events[t]);
        row.field(std::string("wall_ns_") + sim::eventTagName(tag),
                  static_cast<std::int64_t>(prof.tag_wall_ns[t]));
    }
    std::cout << row;

    TablePrinter table({"subsystem", "events", "share", "wall share"});
    for (std::size_t t = 0; t < sim::kEvTagCount; ++t) {
        const auto tag = static_cast<sim::EventTag>(t);
        if (prof.tag_events[t] == 0)
            continue;
        table.addRow(
            {sim::eventTagName(tag), std::to_string(prof.tag_events[t]),
             TablePrinter::pct(static_cast<double>(prof.tag_events[t]) /
                               static_cast<double>(prof.executed)),
             TablePrinter::pct(
                 prof.wall_ns > 0
                     ? static_cast<double>(prof.tag_wall_ns[t]) /
                           static_cast<double>(prof.wall_ns)
                     : 0.0)});
    }
    std::cout << table.render() << "\n";

    bool ok = true;
    if (prof.executed == 0) {
        std::cout << "SELF-CHECK FAIL: no events executed\n";
        ok = false;
    }
    std::uint64_t tagged = 0;
    for (std::size_t t = 0; t < sim::kEvTagCount; ++t)
        tagged += prof.tag_events[t];
    if (tagged != prof.executed) {
        std::cout << "SELF-CHECK FAIL: tag counts (" << tagged
                  << ") do not partition executed events ("
                  << prof.executed << ")\n";
        ok = false;
    }
    if (disabled.allocations() != 0) {
        std::cout << "SELF-CHECK FAIL: disabled tracer performed "
                  << disabled.allocations() << " heap appends\n";
        ok = false;
    }
    if (tracer.spans().empty()) {
        std::cout << "SELF-CHECK FAIL: enabled tracer recorded no spans\n";
        ok = false;
    }
    if (!reruns_identical) {
        std::cout << "SELF-CHECK FAIL: repeated untraced runs produced "
                     "different RequestStats fingerprints\n";
        ok = false;
    }
    if (base.stats_fingerprint != traced.stats_fingerprint) {
        std::cout << "SELF-CHECK FAIL: tracing perturbed RequestStats "
                     "(fingerprints differ)\n";
        ok = false;
    }
    if (base.stats_fingerprint != sampled.stats_fingerprint) {
        std::cout << "SELF-CHECK FAIL: trace sampling perturbed "
                     "RequestStats (fingerprints differ)\n";
        ok = false;
    }
    if (sampler.retained().empty()) {
        std::cout << "SELF-CHECK FAIL: sampler retained no traces\n";
        ok = false;
    }
    if (sampler.retainedBytes() > sampler_cfg.retained_byte_budget) {
        std::cout << "SELF-CHECK FAIL: retained bytes "
                  << sampler.retainedBytes() << " exceed the budget "
                  << sampler_cfg.retained_byte_budget << "\n";
        ok = false;
    }
    if (sampler.arenaSlots() >= n_requests / 2) {
        std::cout << "SELF-CHECK FAIL: sampler arena grew to "
                  << sampler.arenaSlots() << " slots over " << n_requests
                  << " requests — trees are not being recycled\n";
        ok = false;
    }
    if (path_profile.requests == 0) {
        std::cout << "SELF-CHECK FAIL: no critical paths extracted from "
                     "the traced run\n";
        ok = false;
    }

    if (!ok)
        return 1;
    std::cout << "Simulated " << prof.executed << " events at "
              << static_cast<std::uint64_t>(events_per_sec)
              << " events/sec; tracing on/off fingerprints agree.\n";
    return 0;
}
