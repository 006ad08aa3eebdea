/**
 * @file
 * google-benchmark microbenches for the compute kernels underneath the
 * serving substrate: SLS pooling (fp32 / int8 / int4 backed), dense FC,
 * the DES event engine, and index splitting. These back the cost-model
 * constants used by the simulation. The draw-path rows (Rng draws, a
 * per-RPC-attempt fork, one DRM1 request) time the simulator's own
 * random-number layer, which request generation is bound by.
 */
#include <benchmark/benchmark.h>

#include "graph/operators.h"
#include "model/generators.h"
#include "sim/engine.h"
#include "stats/rng.h"
#include "tensor/embedding_table.h"
#include "tensor/kernels.h"
#include "workload/request_generator.h"

namespace {

using namespace dri;

void
BM_SlsPooling(benchmark::State &state)
{
    const auto precision = static_cast<tensor::Precision>(state.range(0));
    tensor::VirtualEmbeddingTable table(1 << 20, 32, 0xfeed, 4096);
    table.quantize(precision);

    stats::Rng rng(7);
    std::vector<std::int64_t> indices;
    std::vector<std::int32_t> lengths;
    for (int seg = 0; seg < 64; ++seg) {
        lengths.push_back(20);
        for (int k = 0; k < 20; ++k)
            indices.push_back(rng.uniformInt(0, (1 << 20) - 1));
    }
    tensor::Tensor out;
    for (auto _ : state) {
        table.sls(indices, lengths, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(indices.size()));
}
BENCHMARK(BM_SlsPooling)
    ->Arg(static_cast<int>(tensor::Precision::Fp32))
    ->Arg(static_cast<int>(tensor::Precision::Int8))
    ->Arg(static_cast<int>(tensor::Precision::Int4));

void
BM_FullyConnected(benchmark::State &state)
{
    const std::int64_t dim = state.range(0);
    stats::Rng rng(11);
    tensor::Tensor in(64, dim), w(dim, dim), b(dim), out;
    for (std::int64_t i = 0; i < in.numel(); ++i)
        in.at(i) = static_cast<float>(rng.gaussian());
    for (std::int64_t i = 0; i < w.numel(); ++i)
        w.at(i) = static_cast<float>(rng.gaussian());
    for (auto _ : state) {
        tensor::fullyConnected(in, w, b, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            2 * 64 * dim * dim);
}
BENCHMARK(BM_FullyConnected)->Arg(32)->Arg(128);

void
BM_EventEngine(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Engine engine;
        int fired = 0;
        for (int i = 0; i < 10000; ++i)
            engine.schedule(i, [&fired] { ++fired; });
        engine.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            10000);
}
BENCHMARK(BM_EventEngine);

void
BM_SplitIndices(benchmark::State &state)
{
    const int ways = static_cast<int>(state.range(0));
    graph::Workspace ws;
    auto &ids = ws.createIndexList("ids");
    stats::Rng rng(3);
    for (int seg = 0; seg < 64; ++seg) {
        ids.lengths.push_back(50);
        for (int k = 0; k < 50; ++k)
            ids.indices.push_back(rng.uniformInt(0, 1 << 24));
    }
    std::vector<std::string> outs;
    for (int w = 0; w < ways; ++w)
        outs.push_back("part" + std::to_string(w));
    graph::SplitIndicesOp op("ids", outs);
    graph::ExecContext ctx{ws, nullptr};
    for (auto _ : state) {
        op.run(ctx);
        benchmark::DoNotOptimize(ws.indexListBlob(outs[0]).indices.data());
    }
}
BENCHMARK(BM_SplitIndices)->Arg(2)->Arg(8);

void
BM_RngUniform(benchmark::State &state)
{
    stats::Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.uniform());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngUniform);

void
BM_RngGaussian(benchmark::State &state)
{
    stats::Rng rng(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.gaussian());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngGaussian);

/**
 * What the serving engine pays per RPC attempt: fork a child stream and
 * draw a handful of values from it. The lazy seed chain up to the first
 * twisted word dominates.
 */
void
BM_RngForkDraw6(benchmark::State &state)
{
    const stats::Rng parent(3);
    std::uint64_t salt = 0;
    for (auto _ : state) {
        stats::Rng child = parent.fork(salt++);
        double sum = 0.0;
        for (int i = 0; i < 6; ++i)
            sum += child.uniform();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngForkDraw6);

void
BM_GenerateDrm1Request(benchmark::State &state)
{
    const auto spec = model::makeDrm1();
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{42, 0.0});
    for (auto _ : state) {
        const workload::Request req = gen.next();
        benchmark::DoNotOptimize(req.content_hash);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GenerateDrm1Request);

} // namespace

BENCHMARK_MAIN();
