/**
 * @file
 * Tests for the DES serving engine: determinism, stack accounting
 * identities, the Section IV-B network-latency identity of the
 * bounding-RPC record, RPC fan-out counts, batching, platform scaling,
 * the open-loop replayer, and the rejection of malformed requests.
 */
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/rpc_record.h"
#include "core/serving.h"
#include "core/strategies.h"
#include "model/generators.h"
#include "workload/request_generator.h"

namespace {

using namespace dri;

std::vector<workload::Request>
requestsFor(const model::ModelSpec &spec, std::size_t n,
            std::uint64_t seed = 5)
{
    workload::RequestGenerator gen(spec,
                                   workload::GeneratorConfig{seed, 0.0});
    return gen.generate(n);
}

std::vector<double>
poolingFor(const model::ModelSpec &spec)
{
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{99, 0.0});
    return gen.estimatePoolingFactors(300);
}

TEST(RpcRecord, NetworkLatencyIdentity)
{
    // Network latency = outstanding at main shard minus remote E2E —
    // exactly the paper's clock-skew-free measurement.
    core::RpcRecord rec;
    rec.dispatched = 1000;
    rec.completed = 2000;
    rec.remote_queue_ns = 50;
    rec.remote_serde_ns = 100;
    rec.remote_service_ns = 150;
    rec.remote_net_overhead_ns = 100;
    rec.remote_sparse_op_ns = 200;
    EXPECT_EQ(rec.outstanding(), 1000);
    EXPECT_EQ(rec.remoteE2e(), 600);
    EXPECT_EQ(rec.networkLatency(), 400);
}

TEST(Serving, SerialReplayDeterministic)
{
    const auto spec = model::makeDrm2();
    const auto reqs = requestsFor(spec, 40);
    const auto plan = core::makeCapacityBalanced(spec, 4);
    core::ServingConfig config;
    config.seed = 7;

    core::ServingSimulation sim1(spec, plan, config);
    core::ServingSimulation sim2(spec, plan, config);
    const auto a = sim1.replaySerial(reqs);
    const auto b = sim2.replaySerial(reqs);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].e2e, b[i].e2e);
        EXPECT_DOUBLE_EQ(a[i].cpuTotalNs(), b[i].cpuTotalNs());
    }
}

TEST(Serving, AllRequestsComplete)
{
    const auto spec = model::makeDrm1();
    const auto reqs = requestsFor(spec, 25);
    for (const auto &plan :
         {core::makeSingular(spec), core::makeOneShard(spec),
          core::makeCapacityBalanced(spec, 8)}) {
        core::ServingSimulation sim(spec, plan, core::ServingConfig{});
        const auto stats = sim.replaySerial(reqs);
        ASSERT_EQ(stats.size(), reqs.size()) << plan.label();
        for (const auto &s : stats) {
            EXPECT_GT(s.e2e, 0) << plan.label();
            EXPECT_GT(s.cpuTotalNs(), 0.0) << plan.label();
        }
    }
}

TEST(Serving, LatencyStackSumsToE2e)
{
    const auto spec = model::makeDrm1();
    const auto reqs = requestsFor(spec, 30);
    for (const auto &plan :
         {core::makeSingular(spec), core::makeCapacityBalanced(spec, 4)}) {
        core::ServingSimulation sim(spec, plan, core::ServingConfig{});
        for (const auto &s : sim.replaySerial(reqs)) {
            const auto sum = s.queue_wait + s.lat_serde + s.lat_service +
                             s.lat_net_overhead + s.lat_embedded +
                             s.lat_dense;
            EXPECT_EQ(sum, s.e2e) << plan.label();
        }
    }
}

TEST(Serving, SingularHasNoRpcsOrNetwork)
{
    const auto spec = model::makeDrm2();
    const auto reqs = requestsFor(spec, 20);
    core::ServingSimulation sim(spec, core::makeSingular(spec),
                                core::ServingConfig{});
    for (const auto &s : sim.replaySerial(reqs)) {
        EXPECT_EQ(s.rpc_count, 0);
        EXPECT_EQ(s.emb_network, 0);
        EXPECT_GT(s.emb_sparse_op, 0); // inline SLS is the embedded portion
        for (double v : s.shard_op_ns)
            EXPECT_DOUBLE_EQ(v, 0.0);
    }
}

TEST(Serving, RpcFanoutMatchesGroupsTimesBatches)
{
    const auto spec = model::makeDrm1(); // every shard hosts both nets
    const auto reqs = requestsFor(spec, 10);
    const auto plan = core::makeCapacityBalanced(spec, 4);
    core::ServingSimulation sim(spec, plan, core::ServingConfig{});
    EXPECT_EQ(sim.fanoutGroupCount(), 8u); // 4 shards x 2 nets
    const auto stats = sim.replaySerial(reqs);
    for (const auto &s : stats)
        EXPECT_EQ(s.rpc_count, s.batches * 8);
}

TEST(Serving, DistributedSlowerThanSingularSerial)
{
    const auto spec = model::makeDrm1();
    const auto reqs = requestsFor(spec, 60);
    core::ServingConfig config;
    core::ServingSimulation base(spec, core::makeSingular(spec), config);
    core::ServingSimulation dist(spec, core::makeOneShard(spec), config);
    const auto b = base.replaySerial(reqs);
    const auto d = dist.replaySerial(reqs);
    double b_sum = 0.0, d_sum = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) {
        b_sum += static_cast<double>(b[i].e2e);
        d_sum += static_cast<double>(d[i].e2e);
    }
    EXPECT_GT(d_sum, b_sum); // Amdahl bound: serial distributed is slower
}

TEST(Serving, ComputeGrowsWithShardCount)
{
    const auto spec = model::makeDrm1();
    const auto reqs = requestsFor(spec, 40);
    const auto pooling = poolingFor(spec);
    double prev = 0.0;
    for (int n : {1, 2, 4, 8}) {
        const auto plan =
            n == 1 ? core::makeOneShard(spec)
                   : core::makeLoadBalanced(spec, n, pooling);
        core::ServingSimulation sim(spec, plan, core::ServingConfig{});
        const auto stats = sim.replaySerial(reqs);
        double cpu = 0.0;
        for (const auto &s : stats)
            cpu += s.cpuTotalNs();
        EXPECT_GT(cpu, prev) << n << " shards";
        prev = cpu;
    }
}

TEST(Serving, NetworkLatencyPositiveAndDominant)
{
    // The paper: network latency exceeds operator latency on sparse shards
    // for distributed configurations (Fig. 8b). A distribution-level
    // property — individual requests may draw unlucky jitter — so the
    // dominance check compares means while positivity holds per request.
    const auto spec = model::makeDrm1();
    const auto reqs = requestsFor(spec, 50);
    const auto plan = core::makeCapacityBalanced(spec, 8);
    core::ServingSimulation sim(spec, plan, core::ServingConfig{});
    double net = 0.0, op = 0.0;
    for (const auto &s : sim.replaySerial(reqs)) {
        EXPECT_GT(s.emb_network, 0);
        net += static_cast<double>(s.emb_network);
        op += static_cast<double>(s.emb_sparse_op);
    }
    EXPECT_GT(net, op);
}

TEST(Serving, BatchCountFollowsBatchSize)
{
    const auto spec = model::makeDrm1(); // default batch 64
    auto reqs = requestsFor(spec, 5);
    core::ServingConfig config;
    core::ServingSimulation sim(spec, core::makeSingular(spec), config);
    for (const auto &s : sim.replaySerial(reqs)) {
        const auto expect =
            (s.items + spec.default_batch_size - 1) /
            spec.default_batch_size;
        EXPECT_EQ(s.batches, expect);
    }

    config.batch_size_override = 1 << 20;
    core::ServingSimulation single(spec, core::makeSingular(spec), config);
    for (const auto &s : single.replaySerial(reqs))
        EXPECT_EQ(s.batches, 1);
}

TEST(Serving, SlowerPlatformScalesCpu)
{
    const auto spec = model::makeDrm2();
    const auto reqs = requestsFor(spec, 30);
    const auto plan = core::makeCapacityBalanced(spec, 4);

    core::ServingConfig fast;
    core::ServingConfig slow;
    slow.sparse_platform.cpu_time_scale = 2.0;

    core::ServingSimulation f(spec, plan, fast);
    core::ServingSimulation s(spec, plan, slow);
    const auto fs = f.replaySerial(reqs);
    const auto ss = s.replaySerial(reqs);
    double f_op = 0.0, s_op = 0.0;
    for (std::size_t i = 0; i < fs.size(); ++i)
        for (std::size_t sh = 0; sh < fs[i].shard_op_ns.size(); ++sh) {
            f_op += fs[i].shard_op_ns[sh];
            s_op += ss[i].shard_op_ns[sh];
        }
    EXPECT_NEAR(s_op / f_op, 2.0, 0.05);
}

TEST(Serving, OpenLoopCompletesAllAndQueues)
{
    const auto spec = model::makeDrm1();
    const auto reqs = requestsFor(spec, 60);
    core::ServingSimulation sim(spec, core::makeSingular(spec),
                                core::ServingConfig{});
    const auto stats = sim.replayOpenLoop(reqs, 200.0); // aggressive rate
    ASSERT_EQ(stats.size(), reqs.size());
    for (const auto &s : stats)
        EXPECT_GT(s.e2e, 0);
}

TEST(Serving, Drm3TouchesTwoShards)
{
    const auto spec = model::makeDrm3();
    const auto reqs = requestsFor(spec, 30);
    const auto plan =
        core::makeNsbp(spec, 8, dc::scLarge().usableModelBytes());
    core::ServingSimulation sim(spec, plan, core::ServingConfig{});
    for (const auto &s : sim.replaySerial(reqs)) {
        int touched = 0;
        for (double v : s.shard_op_ns)
            touched += v > 0.0 ? 1 : 0;
        EXPECT_LE(touched, 2 * s.batches);
        EXPECT_GE(touched, 1);
    }
}

TEST(Serving, SerialGapShiftsArrivals)
{
    const auto spec = model::makeDrm3();
    const auto reqs = requestsFor(spec, 5);
    core::ServingConfig gap;
    gap.serial_gap_ns = 10 * sim::kMillisecond;
    core::ServingSimulation sim(spec, core::makeSingular(spec), gap);
    const auto stats = sim.replaySerial(reqs);
    for (std::size_t i = 1; i < stats.size(); ++i)
        EXPECT_GE(stats[i].arrival,
                  stats[i - 1].completion + gap.serial_gap_ns);
}

// Malformed requests throw in every build type (Release defines NDEBUG,
// so an assert() would let them through). Unchecked, a request with no
// items would split into zero batches and never complete, halting a
// serial replay at that request, and a short lookup vector would be
// read out of bounds.

void
expectRejected(const model::ModelSpec &spec,
               const std::vector<workload::Request> &reqs)
{
    core::ServingSimulation sim(spec, core::makeCapacityBalanced(spec, 4),
                                core::ServingConfig{});
    EXPECT_THROW(sim.replaySerial(reqs), std::invalid_argument);
    EXPECT_THROW(sim.replayOpenLoop(reqs, 100.0), std::invalid_argument);
    // The open-loop check runs before any arrival is scheduled.
    EXPECT_EQ(sim.engine().pending(), 0u);
    EXPECT_THROW(sim.inject(reqs[1], nullptr), std::invalid_argument);
    EXPECT_EQ(sim.engine().pending(), 0u);

    // The deployment stays usable for well-formed requests.
    const auto good = requestsFor(spec, 3);
    EXPECT_EQ(sim.replaySerial(good).size(), good.size());
    EXPECT_EQ(sim.replayOpenLoop(good, 100.0).size(), good.size());
}

TEST(Serving, RejectsRequestWithoutItems)
{
    const auto spec = model::makeDrm1();
    auto reqs = requestsFor(spec, 3);
    reqs[1].items = 0;
    expectRejected(spec, reqs);
    reqs[1].items = -4;
    expectRejected(spec, reqs);
}

TEST(Serving, RejectsLookupVectorOfWrongSize)
{
    const auto spec = model::makeDrm1();
    auto reqs = requestsFor(spec, 3);
    reqs[1].table_lookups.pop_back();
    expectRejected(spec, reqs);
    reqs[1].table_lookups.resize(spec.tables.size() + 1, 1);
    expectRejected(spec, reqs);
}

} // namespace
