/**
 * @file
 * Serving determinism stress test: same seed => byte-identical
 * RequestStats across the full hedging x batching x admission x
 * result-cache configuration grid. Every stochastic component of the
 * pipeline draws from seeded streams (common random numbers per RPC
 * attempt), so two fresh simulations of the same config must agree on
 * EVERY field of EVERY request — exact integer equality and bitwise
 * double equality, not tolerances. This is the regression net for
 * CRN-stream bugs: any code path that consumes randomness in a
 * schedule-dependent order shows up here as a flaky mismatch.
 * GoldenFingerprintsMatchParent goes further and pins the absolute
 * stats and span stream of a set of cases, so a change that shifts
 * behaviour the same way in both runs still fails.
 *
 * Registered with ctest under the `property` label (slow lane).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/serving.h"
#include "core/strategies.h"
#include "model/generators.h"
#include "obs/critical_path.h"
#include "obs/span_tracer.h"
#include "obs/timeseries.h"
#include "sched/batcher.h"
#include "sched/capacity_search.h"
#include "sim/engine.h"
#include "workload/request_generator.h"

namespace {

using namespace dri;

/** Bitwise-equality comparison of two RequestStats. */
void
expectIdentical(const core::RequestStats &a, const core::RequestStats &b,
                const std::string &label)
{
    EXPECT_EQ(a.id, b.id) << label;
    EXPECT_EQ(a.items, b.items) << label;
    EXPECT_EQ(a.batches, b.batches) << label;
    EXPECT_EQ(a.rpc_count, b.rpc_count) << label;
    EXPECT_EQ(a.hedges, b.hedges) << label;
    EXPECT_EQ(a.hedge_wins, b.hedge_wins) << label;
    EXPECT_EQ(a.result_cache_hits, b.result_cache_hits) << label;
    EXPECT_EQ(a.result_cache_misses, b.result_cache_misses) << label;
    EXPECT_EQ(a.result_cache_bytes_saved, b.result_cache_bytes_saved)
        << label;
    EXPECT_EQ(a.arrival, b.arrival) << label;
    EXPECT_EQ(a.completion, b.completion) << label;
    EXPECT_EQ(a.e2e, b.e2e) << label;
    EXPECT_EQ(a.shed_reason, b.shed_reason) << label;
    EXPECT_EQ(a.batch_wait, b.batch_wait) << label;
    EXPECT_EQ(a.coalesced, b.coalesced) << label;
    EXPECT_EQ(a.queue_wait, b.queue_wait) << label;
    EXPECT_EQ(a.lat_serde, b.lat_serde) << label;
    EXPECT_EQ(a.lat_service, b.lat_service) << label;
    EXPECT_EQ(a.lat_net_overhead, b.lat_net_overhead) << label;
    EXPECT_EQ(a.lat_embedded, b.lat_embedded) << label;
    EXPECT_EQ(a.lat_dense, b.lat_dense) << label;
    EXPECT_EQ(a.emb_sparse_op, b.emb_sparse_op) << label;
    EXPECT_EQ(a.emb_serde, b.emb_serde) << label;
    EXPECT_EQ(a.emb_service, b.emb_service) << label;
    EXPECT_EQ(a.emb_net_overhead, b.emb_net_overhead) << label;
    EXPECT_EQ(a.emb_network, b.emb_network) << label;
    EXPECT_EQ(a.emb_queue, b.emb_queue) << label;
    // Doubles must match to the bit: same seed, same schedule, same
    // floating-point operations in the same order.
    EXPECT_EQ(a.hedge_wasted_cpu_ns, b.hedge_wasted_cpu_ns) << label;
    EXPECT_EQ(a.cpu_ops_ns, b.cpu_ops_ns) << label;
    EXPECT_EQ(a.cpu_serde_ns, b.cpu_serde_ns) << label;
    EXPECT_EQ(a.cpu_service_ns, b.cpu_service_ns) << label;
    EXPECT_EQ(a.main_op_ns, b.main_op_ns) << label;
    ASSERT_EQ(a.shard_op_ns.size(), b.shard_op_ns.size()) << label;
    for (std::size_t i = 0; i < a.shard_op_ns.size(); ++i)
        EXPECT_EQ(a.shard_op_ns[i], b.shard_op_ns[i]) << label << " shard "
                                                      << i;
    ASSERT_EQ(a.shard_net_op_ns.size(), b.shard_net_op_ns.size()) << label;
    for (std::size_t i = 0; i < a.shard_net_op_ns.size(); ++i)
        EXPECT_EQ(a.shard_net_op_ns[i], b.shard_net_op_ns[i])
            << label << " shard-net " << i;
}

struct GridPoint
{
    bool hedged = false;
    bool batched = false;
    bool admission = false;
    bool result_cache = false;

    std::string
    label() const
    {
        std::string s;
        s += hedged ? "hedge" : "nohedge";
        s += batched ? "+batch" : "";
        s += admission ? "+admit" : "";
        s += result_cache ? "+rcache" : "";
        return s;
    }
};

class ServingStressTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        spec_ = model::makeDrm2();
        plan_ = core::makeCapacityBalanced(spec_, 4);
        workload::RequestGenerator gen(
            spec_, workload::GeneratorConfig{0xbeef});
        requests_ = gen.generate(150);
    }

    core::ServingConfig
    configFor(const GridPoint &p) const
    {
        auto cfg = sched::hedgeStudyConfig(
            rpc::LoadBalancePolicy::LeastOutstanding, 3, p.hedged);
        if (p.admission) {
            cfg.admission.max_main_queue = 64;
            cfg.admission.deadline_ns = 12 * sim::kMillisecond;
            cfg.admission.cancel_in_flight = true;
        }
        cfg.result_cache.enabled = p.result_cache;
        cfg.result_cache.ttl_ns = 50 * sim::kMillisecond;
        return cfg;
    }

    std::vector<core::RequestStats>
    run(const GridPoint &p, obs::SpanTracer *tracer = nullptr,
        obs::RollingHistogram *latency_feed = nullptr) const
    {
        auto cfg = configFor(p);
        cfg.tracer = tracer;
        cfg.latency_feed = latency_feed;
        core::ServingSimulation sim(spec_, plan_, cfg);
        if (!p.batched)
            return sim.replayOpenLoop(requests_, 1500.0);
        sched::BatcherConfig bc;
        bc.policy = sched::BatchPolicy::QueueAware;
        return sched::runBatchedOpenLoop(sim, requests_, 1500.0, bc);
    }

    model::ModelSpec spec_;
    core::ShardingPlan plan_;
    std::vector<workload::Request> requests_;
};

TEST_F(ServingStressTest, ByteIdenticalReplayAcrossConfigGrid)
{
    for (const bool hedged : {false, true})
        for (const bool batched : {false, true})
            for (const bool admission : {false, true})
                for (const bool rcache : {false, true}) {
                    const GridPoint p{hedged, batched, admission, rcache};
                    const auto first = run(p);
                    const auto second = run(p);
                    ASSERT_EQ(first.size(), second.size()) << p.label();
                    ASSERT_EQ(first.size(), requests_.size()) << p.label();
                    for (std::size_t i = 0; i < first.size(); ++i)
                        expectIdentical(first[i], second[i],
                                        p.label() + " req " +
                                            std::to_string(i));
                }
}

/**
 * Cross-config sanity on the same grid: every config serves or sheds
 * every request exactly once (conservation), and mid-flight shed
 * requests carry the deadline reason with their RPC evidence intact.
 */
TEST_F(ServingStressTest, EveryConfigConservesRequests)
{
    for (const bool hedged : {false, true})
        for (const bool batched : {false, true})
            for (const bool admission : {false, true})
                for (const bool rcache : {false, true}) {
                    const GridPoint p{hedged, batched, admission, rcache};
                    const auto stats = run(p);
                    ASSERT_EQ(stats.size(), requests_.size()) << p.label();
                    for (const auto &s : stats) {
                        EXPECT_GE(s.e2e, 0) << p.label();
                        if (!p.admission) {
                            EXPECT_FALSE(s.shed()) << p.label();
                        }
                        if (!p.result_cache) {
                            EXPECT_EQ(s.result_cache_hits, 0)
                                << p.label();
                        }
                        if (!p.hedged) {
                            EXPECT_EQ(s.hedges, 0) << p.label();
                        }
                    }
                }
}

/**
 * The pure-observer contract of the span tracer: attaching it to any
 * grid configuration leaves every field of every RequestStats
 * byte-identical to the untraced run — the tracer never consumes
 * randomness and never schedules events. The traced run additionally
 * has to produce a structurally sound trace: zero open spans, zero
 * nesting violations, and (for unbatched replays) exactly one root
 * span per injected request.
 */
TEST_F(ServingStressTest, TracingLeavesStatsByteIdentical)
{
    for (const bool hedged : {false, true})
        for (const bool batched : {false, true})
            for (const bool admission : {false, true})
                for (const bool rcache : {false, true}) {
                    const GridPoint p{hedged, batched, admission, rcache};
                    const auto baseline = run(p);
                    obs::SpanTracer tracer;
                    const auto traced = run(p, &tracer);
                    ASSERT_EQ(baseline.size(), traced.size()) << p.label();
                    for (std::size_t i = 0; i < baseline.size(); ++i)
                        expectIdentical(baseline[i], traced[i],
                                        p.label() + " traced req " +
                                            std::to_string(i));

                    const auto rep =
                        obs::checkConservation(tracer.spans());
                    EXPECT_GT(rep.total_spans, 0u) << p.label();
                    EXPECT_EQ(rep.open_spans, 0u) << p.label();
                    EXPECT_EQ(tracer.openCount(), 0u) << p.label();
                    EXPECT_EQ(rep.nesting_violations, 0u) << p.label();
                    if (!p.batched) {
                        // One root per injected request; the batcher
                        // merges requests so its root count is the
                        // (config-dependent) batch count instead.
                        EXPECT_TRUE(rep.ok(requests_.size()))
                            << p.label() << " roots=" << rep.root_spans;
                    } else {
                        EXPECT_GT(rep.root_spans, 0u) << p.label();
                        EXPECT_LE(rep.root_spans, requests_.size())
                            << p.label();
                    }
                }
}

/**
 * The rolling-latency feed shares the tracer's pure-observer contract:
 * attaching a RollingHistogram to any grid configuration leaves every
 * RequestStats byte-identical, while the feed itself sees exactly the
 * served (non-shed) requests and a windowed P99 consistent with them.
 */
TEST_F(ServingStressTest, LatencyFeedLeavesStatsByteIdentical)
{
    for (const bool hedged : {false, true})
        for (const bool batched : {false, true})
            for (const bool admission : {false, true})
                for (const bool rcache : {false, true}) {
                    const GridPoint p{hedged, batched, admission, rcache};
                    const auto baseline = run(p);
                    // Horizon far beyond the replay: every served
                    // request stays inside the window for the final
                    // cross-check below.
                    obs::RollingHistogram feed(
                        obs::WindowConfig{1e6, 8});
                    const auto fed = run(p, nullptr, &feed);
                    ASSERT_EQ(baseline.size(), fed.size()) << p.label();
                    std::uint64_t served = 0;
                    std::int64_t max_e2e = 0;
                    sim::SimTime last_completion = 0;
                    for (std::size_t i = 0; i < baseline.size(); ++i) {
                        expectIdentical(baseline[i], fed[i],
                                        p.label() + " fed req " +
                                            std::to_string(i));
                        if (!fed[i].shed()) {
                            ++served;
                            max_e2e = std::max(max_e2e, fed[i].e2e);
                            last_completion = std::max(
                                last_completion, fed[i].completion);
                        }
                    }
                    const double t_s =
                        static_cast<double>(last_completion) * 1e-9;
                    EXPECT_EQ(feed.count(t_s), served) << p.label();
                    if (served > 0) {
                        const double p99 =
                            feed.valueAtQuantile(t_s, 0.99);
                        EXPECT_GT(p99, 0.0) << p.label();
                        EXPECT_LE(p99,
                                  static_cast<double>(max_e2e) + 1.0)
                            << p.label();
                    }
                }
}

/**
 * Tail-based trace sampling inherits the pure-observer contract on the
 * full grid: a tracer with an attached TraceSampler (plus the rolling
 * latency feed that drives its tail threshold) leaves every
 * RequestStats byte-identical to the untraced run. The sampler draws
 * only from its private RNG, so the retained set is itself
 * deterministic across reruns, and retained bytes never exceed the
 * configured budget.
 */
TEST_F(ServingStressTest, TraceSamplingLeavesStatsByteIdentical)
{
    const auto sampledRun = [this](const GridPoint &p,
                                   obs::TraceSampler &sampler) {
        obs::SpanTracer tracer;
        tracer.setSampler(&sampler);
        obs::RollingHistogram feed(obs::WindowConfig{1e6, 8});
        sampler.setLatencyFeed(&feed);
        return run(p, &tracer, &feed);
    };
    for (const bool hedged : {false, true})
        for (const bool batched : {false, true})
            for (const bool admission : {false, true})
                for (const bool rcache : {false, true}) {
                    const GridPoint p{hedged, batched, admission, rcache};
                    const auto baseline = run(p);

                    obs::SamplerConfig sc;
                    sc.reservoir_size = 8;
                    sc.retained_byte_budget = 256u << 10;
                    obs::TraceSampler sampler(sc);
                    const auto sampled = sampledRun(p, sampler);
                    ASSERT_EQ(baseline.size(), sampled.size())
                        << p.label();
                    for (std::size_t i = 0; i < baseline.size(); ++i)
                        expectIdentical(baseline[i], sampled[i],
                                        p.label() + " sampled req " +
                                            std::to_string(i));

                    EXPECT_GT(sampler.stats().roots_closed, 0u)
                        << p.label();
                    EXPECT_LE(sampler.retainedBytes(),
                              sc.retained_byte_budget)
                        << p.label();

                    // Same seed, same replay -> same retained set.
                    obs::TraceSampler rerun_sampler(sc);
                    sampledRun(p, rerun_sampler);
                    ASSERT_EQ(rerun_sampler.retained().size(),
                              sampler.retained().size())
                        << p.label();
                    for (std::size_t i = 0;
                         i < sampler.retained().size(); ++i) {
                        EXPECT_EQ(sampler.retained()[i].request_id,
                                  rerun_sampler.retained()[i].request_id)
                            << p.label();
                        EXPECT_EQ(sampler.retained()[i].keep_class,
                                  rerun_sampler.retained()[i].keep_class)
                            << p.label();
                    }
                }
}

// ---------------------------------------------------------------------------
// Golden fingerprints. The tests above compare two runs of the same
// build; these pin the absolute output of the serving engine, so a
// refactor that changes behaviour identically in both runs still fails.
// Update the constants only in a change that means to alter the
// engine's behaviour, and say so in its description.
// ---------------------------------------------------------------------------

/** 64-bit FNV-1a over the raw bytes of every value fed to it. */
class Fnv
{
  public:
    template <class T>
    void
    add(const T &v)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (unsigned char c : bytes) {
            h_ ^= c;
            h_ *= 0x100000001b3ULL;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/**
 * Every RequestStats field, both per-shard vectors, and the
 * simulation-level hedge, fault and shed counters.
 */
std::uint64_t
statsFingerprint(const std::vector<core::RequestStats> &stats,
                 const core::ServingSimulation &sim)
{
    Fnv f;
    f.add(stats.size());
    for (const auto &s : stats) {
        f.add(s.id);
        f.add(s.items);
        f.add(s.batches);
        f.add(s.rpc_count);
        f.add(s.hedges);
        f.add(s.hedge_wins);
        f.add(s.hedge_wasted_cpu_ns);
        f.add(s.result_cache_hits);
        f.add(s.result_cache_misses);
        f.add(s.result_cache_bytes_saved);
        f.add(s.arrival);
        f.add(s.completion);
        f.add(s.e2e);
        f.add(s.shed_reason);
        f.add(s.batch_wait);
        f.add(s.coalesced);
        f.add(s.queue_wait);
        f.add(s.lat_serde);
        f.add(s.lat_service);
        f.add(s.lat_net_overhead);
        f.add(s.lat_embedded);
        f.add(s.lat_dense);
        f.add(s.emb_sparse_op);
        f.add(s.emb_serde);
        f.add(s.emb_service);
        f.add(s.emb_net_overhead);
        f.add(s.emb_network);
        f.add(s.emb_queue);
        f.add(s.cpu_ops_ns);
        f.add(s.cpu_serde_ns);
        f.add(s.cpu_service_ns);
        f.add(s.shard_op_ns.size());
        for (double v : s.shard_op_ns)
            f.add(v);
        f.add(s.shard_net_op_ns.size());
        for (double v : s.shard_net_op_ns)
            f.add(v);
        f.add(s.main_op_ns);
    }
    const auto addHedge = [&f](const rpc::HedgeStats &h) {
        f.add(h.primary_rpcs);
        f.add(h.hedges);
        f.add(h.wins);
        f.add(h.losses);
        f.add(h.cancelled);
        f.add(h.suppressed);
        f.add(h.wasted_busy_ns);
        f.add(h.total_busy_ns);
    };
    addHedge(sim.hedgeStats());
    for (const auto &h : sim.perShardHedgeStats())
        addHedge(h);
    const auto &fs = sim.faultStats();
    f.add(fs.kills);
    f.add(fs.restores);
    f.add(fs.dead_target_attempts);
    f.add(fs.partition_drops);
    f.add(fs.lost_in_service);
    f.add(fs.retries);
    f.add(fs.resolution_failures);
    f.add(fs.upstream_failures);
    f.add(sim.shedCancelledRpcs());
    return f.value();
}

/**
 * The flat span stream in emission order, plus what the rolling
 * latency feed saw by the end of the run.
 */
std::uint64_t
spanFingerprint(const obs::SpanTracer &tracer,
                const obs::RollingHistogram &feed, double t_s)
{
    Fnv f;
    f.add(tracer.spans().size());
    for (const auto &sp : tracer.spans()) {
        f.add(sp.request_id);
        f.add(sp.kind);
        f.add(sp.parent);
        f.add(sp.begin);
        f.add(sp.end);
        f.add(sp.shard);
        f.add(sp.net);
        f.add(sp.batch);
        f.add(sp.flags);
    }
    f.add(feed.count(t_s));
    f.add(feed.valueAtQuantile(t_s, 0.99));
    return f.value();
}

struct Golden
{
    std::uint64_t stats = 0; //!< untraced run
    std::uint64_t spans = 0; //!< traced run with a latency feed
};

/**
 * Run one case untraced and traced: the traced run's stats must hash
 * like the untraced run's, and both hashes must equal the pinned ones.
 */
template <class Replay>
void
expectGolden(const model::ModelSpec &spec, const core::ShardingPlan &plan,
             core::ServingConfig cfg, Replay replay, const Golden &want,
             const std::string &label)
{
    core::ServingSimulation plain(spec, plan, cfg);
    const std::uint64_t stats = statsFingerprint(replay(plain), plain);

    obs::SpanTracer tracer;
    obs::RollingHistogram feed(obs::WindowConfig{1e6, 8});
    cfg.tracer = &tracer;
    cfg.latency_feed = &feed;
    core::ServingSimulation traced(spec, plan, cfg);
    const std::uint64_t traced_stats =
        statsFingerprint(replay(traced), traced);
    const double t_s = static_cast<double>(traced.engine().now()) * 1e-9;
    EXPECT_EQ(tracer.openCount(), 0u) << label;

    EXPECT_EQ(traced_stats, stats) << label;
    EXPECT_EQ(stats, want.stats) << label << " stats";
    EXPECT_EQ(spanFingerprint(tracer, feed, t_s), want.spans)
        << label << " spans";
}

TEST_F(ServingStressTest, GoldenFingerprintsMatchParent)
{
    // The 16-point grid, in ByteIdenticalReplayAcrossConfigGrid order.
    const Golden grid[16] = {
        {0x1e396261fba4ebecULL, 0x8f4efc2b0b24e7ebULL},
        {0x4bb8f1b418f4b7ccULL, 0xb9fed650c903fc9cULL},
        {0xcd96de4fc2c9812fULL, 0xc9c2d17b14ea6673ULL},
        {0xb69e8200cb0e6583ULL, 0x856105f4f658a226ULL},
        {0x17e4f67b5cec5d9eULL, 0x8ee08e5c09a2d9ddULL},
        {0xd0270c350aafc35eULL, 0x3931bdbf5726d447ULL},
        {0xdcb17e5f980c4f42ULL, 0xe740d2e8be9bd6a2ULL},
        {0x6377ff7e0067905eULL, 0x59f5982c1d6a9e53ULL},
        {0x7e891312c2c4d82eULL, 0x3b2ccb7ac26b29b3ULL},
        {0x195248316f7e99feULL, 0x822c56f3fbd29922ULL},
        {0x2baae8a03a8e15ebULL, 0x7a8facba8b1ce824ULL},
        {0xc610fa7aa6f0c5d3ULL, 0xa3f62799c1275e99ULL},
        {0xb6d60a8f79aa345bULL, 0x8e6efc181dd10afeULL},
        {0xf636828bf2b09ffbULL, 0xa654d8beda67c3daULL},
        {0xb00b2db1b6b3b530ULL, 0x65dc738e23dd76a0ULL},
        {0x670647c1f84f8c48ULL, 0x5b54d5f2593dc56cULL},
    };
    int i = 0;
    for (const bool hedged : {false, true})
        for (const bool batched : {false, true})
            for (const bool admission : {false, true})
                for (const bool rcache : {false, true}) {
                    const GridPoint p{hedged, batched, admission, rcache};
                    const auto replay = [this, &p](
                                            core::ServingSimulation &sim) {
                        if (!p.batched)
                            return sim.replayOpenLoop(requests_, 1500.0);
                        sched::BatcherConfig bc;
                        bc.policy = sched::BatchPolicy::QueueAware;
                        return sched::runBatchedOpenLoop(sim, requests_,
                                                         1500.0, bc);
                    };
                    expectGolden(spec_, plan_, configFor(p), replay,
                                 grid[i++], "grid " + p.label());
                }

    // Singular plan: SLS runs inline, so the shed guards of the inline
    // batch path are the ones exercised. Two slots per request make
    // later batches wait for a slot past the deadline.
    {
        const auto spec = model::makeDrm1();
        const auto plan = core::makeSingular(spec);
        const auto reqs =
            workload::RequestGenerator(spec,
                                       workload::GeneratorConfig{0x5eed})
                .generate(120);
        core::ServingConfig cfg;
        cfg.worker_threads = 4;
        cfg.request_parallelism = 2;
        cfg.admission.max_main_queue = 256;
        cfg.admission.deadline_ns = 20 * sim::kMillisecond;
        cfg.admission.cancel_in_flight = true;
        expectGolden(
            spec, plan, cfg,
            [&reqs](core::ServingSimulation &sim) {
                return sim.replayOpenLoop(reqs, 250.0);
            },
            Golden{0xed98c8f51b7221c1ULL, 0x8fbf00cd9186092bULL},
            "singular");
    }

    // Serial replay with an inter-request gap: the wide DRM1 fan-out of
    // the Section VI overhead method.
    {
        const auto spec = model::makeDrm1();
        const auto plan = core::makeCapacityBalanced(spec, 8);
        const auto reqs =
            workload::RequestGenerator(spec,
                                       workload::GeneratorConfig{0x5e71})
                .generate(40);
        core::ServingConfig cfg;
        cfg.serial_gap_ns = 250 * sim::kMicrosecond;
        expectGolden(
            spec, plan, cfg,
            [&reqs](core::ServingSimulation &sim) {
                return sim.replaySerial(reqs);
            },
            Golden{0x45ce61717b510fa2ULL, 0x9cff30baf6558919ULL},
            "serial");
    }

    // Admission without mid-flight cancellation, behind the dynamic
    // batcher: a tight main queue sheds at arrival, and requests whose
    // deadline passes while they queue are shed when a core is granted.
    {
        auto cfg = configFor(GridPoint{false, false, false, false});
        cfg.worker_threads = 2;
        cfg.admission.max_main_queue = 6;
        cfg.admission.deadline_ns = 5 * sim::kMillisecond;
        expectGolden(
            spec_, plan_, cfg,
            [this](core::ServingSimulation &sim) {
                sched::BatcherConfig bc;
                bc.policy = sched::BatchPolicy::QueueAware;
                return sched::runBatchedOpenLoop(sim, requests_, 1500.0,
                                                 bc);
            },
            Golden{0x4b555d0ba6c887a7ULL, 0x56c77874dfb60a2bULL},
            "admission");
    }

    // Mid-flight shedding with a deadline shorter than the main-queue
    // wait: the deadline timer sheds requests still queued for a main
    // core (their Active is released at the grant) and requests in
    // request deserde (released when deserde ends).
    {
        auto cfg = configFor(GridPoint{false, false, false, false});
        cfg.worker_threads = 2;
        cfg.admission.deadline_ns = 4 * sim::kMillisecond;
        cfg.admission.cancel_in_flight = true;
        expectGolden(
            spec_, plan_, cfg,
            [this](core::ServingSimulation &sim) {
                return sim.replayOpenLoop(requests_, 1500.0);
            },
            Golden{0x292cb761fc06edffULL, 0x5cc7b48a4d37f65aULL},
            "queued shed");
    }

    // Row-split tables: NSBP over 4 shards splits DRM3's dominant table
    // 3 ways, so fan-out groups carry table pieces. Its pooling factor
    // is 1, so each request touches one piece, rotated by request id;
    // 60 requests land it on every piece's shard many times over.
    {
        const auto spec = model::makeDrm3();
        const auto plan =
            core::makeNsbp(spec, 4, dc::scLarge().usableModelBytes());
        std::vector<int> piece_shards;
        for (const auto &asg : plan.assignments())
            if (asg.isSplit())
                piece_shards.insert(piece_shards.end(), asg.shards.begin(),
                                    asg.shards.end());
        ASSERT_FALSE(piece_shards.empty()) << "plan has no split table";
        const auto reqs =
            workload::RequestGenerator(spec,
                                       workload::GeneratorConfig{0xd3a3})
                .generate(60);
        core::ServingConfig cfg;
        core::ServingSimulation probe(spec, plan, cfg);
        const auto stats = probe.replayOpenLoop(reqs, 400.0);
        for (int shard : piece_shards) {
            const auto s = static_cast<std::size_t>(shard);
            EXPECT_TRUE(std::any_of(stats.begin(), stats.end(),
                                    [s](const core::RequestStats &st) {
                                        return st.shard_op_ns[s] > 0.0;
                                    }))
                << "no lookups reached piece shard " << shard;
        }
        expectGolden(
            spec, plan, cfg,
            [&reqs](core::ServingSimulation &sim) {
                return sim.replayOpenLoop(reqs, 400.0);
            },
            Golden{0xec9fbd680702538dULL, 0x3b4c019c1de6774aULL},
            "row-split");
    }

    // Faults mid-run with hedging, the result cache and mid-flight
    // shedding on: replicas die under load (one shard loses all three),
    // another slows down, a shard is cut off and healed, and dead
    // replicas come back. Short timeouts and discovery lag keep every
    // failover path inside the replay; small pools keep work queued
    // when the faults land.
    {
        // Each of 50 feature vectors recurs three times, ten requests
        // apart and under fresh ids, so the result cache serves whole
        // batches.
        std::vector<workload::Request> reqs;
        for (std::size_t block = 0; block < 50; block += 10)
            for (std::uint64_t k = 0; k < 3; ++k)
                for (std::size_t i = block; i < block + 10; ++i) {
                    reqs.push_back(requests_[i]);
                    reqs.back().id += 1000 * k;
                }
        auto cfg = configFor(GridPoint{true, false, true, true});
        cfg.hedge.min_samples = 16;
        cfg.hedge.max_hedge_fraction = 0.3;
        cfg.hedge.max_backup_outstanding = 4;
        cfg.hedge.per_shard_deadline = true;
        cfg.faults.rpc_timeout_ns = 4 * sim::kMillisecond;
        cfg.faults.discovery_lag_ns = 10 * sim::kMillisecond;
        cfg.faults.max_attempt_retries = 1;
        // The script runs on a clock of 1/20 of the replay's span.
        const auto script = [](core::ServingSimulation &sim,
                               sim::Duration step) {
            auto &e = sim.engine();
            const auto at = [&e, step](int t, auto fn) {
                e.schedule(t * step, sim::kEvDriver, fn);
            };
            at(4, [&sim] { sim.killReplica(1); });
            at(6, [&sim] { sim.degradeReplica(4, 6.0); });
            at(8, [&sim] { sim.killReplica(7); });
            at(10, [&sim] {
                sim.killReplica(0);
                sim.killReplica(2);
            });
            at(11, [&sim] { sim.partitionShard(2, true); });
            at(13, [&sim] { sim.partitionShard(2, false); });
            at(14, [&sim] {
                sim.restoreReplica(0);
                sim.restoreReplica(1);
            });
            at(16, [&sim] { sim.degradeReplica(4, 1.0); });
            at(18, [&sim] { sim.killReplica(5); });
        };
        // A moderate load, then two overloads with a tighter deadline
        // where most requests are shed mid-flight: one starved of
        // main-shard cores, one at the grid's rate and pool sizes.
        struct Load
        {
            double qps;
            int workers, sparse_workers;
            sim::Duration deadline_ns;
            Golden want;
        };
        const Load loads[3] = {
            {300.0, 40, 2, 25 * sim::kMillisecond,
             {0xb604a4f22eee3e1eULL, 0xec63f6dd4c262b08ULL}},
            {700.0, 4, 2, 12 * sim::kMillisecond,
             {0xa0874d212e86907bULL, 0x101918f7cd44fe5dULL}},
            {1500.0, 40, 6, 12 * sim::kMillisecond,
             {0x8f7828f501f7f2e9ULL, 0xbf69a7567bd4fbe5ULL}},
        };
        for (const Load &load : loads) {
            const double qps = load.qps;
            cfg.worker_threads = load.workers;
            cfg.sparse_worker_threads = load.sparse_workers;
            cfg.admission.deadline_ns = load.deadline_ns;
            const auto step = static_cast<sim::Duration>(
                static_cast<double>(reqs.size()) / qps / 20.0 *
                static_cast<double>(sim::kSecond));
            expectGolden(
                spec_, plan_, cfg,
                [&reqs, &script, qps, step](core::ServingSimulation &sim) {
                    script(sim, step);
                    return sim.replayOpenLoop(reqs, qps);
                },
                load.want, "faults at " + std::to_string(qps));
        }
    }
}

} // namespace
