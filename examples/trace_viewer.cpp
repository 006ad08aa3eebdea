/**
 * @file
 * Trace viewer: reproduces the Fig. 3 visualization. Runs one request
 * through a distributed DRM1 deployment with an obs::SpanTracer attached
 * and renders the cross-layer distributed trace as an ASCII timeline —
 * main shard on top, sparse shards below, with dense ops, serde, queue,
 * wire and remote-compute spans distinguishable. Each sparse RPC attempt
 * is then attributed as in Section IV-B: network latency is the
 * attempt's outstanding time at the main shard minus its E2E time on
 * the sparse shard.
 *
 * Self-checking (exit 1 on violation):
 *  - the request left spans;
 *  - span conservation: one closed root, no open spans, no nesting
 *    violations;
 *  - the slowest attempt's network latency equals the request's
 *    RequestStats::emb_network.
 */
#include <fstream>
#include <iostream>
#include <map>

#include "core/serving.h"
#include "core/strategies.h"
#include "model/generators.h"
#include "obs/chrome_trace.h"
#include "obs/critical_path.h"
#include "obs/render.h"
#include "obs/span_tracer.h"
#include "workload/request_generator.h"

int
main()
{
    using namespace dri;

    const auto spec = model::makeDrm1();
    workload::RequestGenerator gen(spec, {.seed = 11, .diurnal_amplitude = 0});
    const auto pooling = gen.estimatePoolingFactors(200);
    // A small request keeps the timeline readable (few batches).
    auto requests = gen.generate(1);
    requests[0].items = 96; // two default batches

    const auto plan = core::makeLoadBalanced(spec, 2, pooling);
    obs::SpanTracer tracer;
    core::ServingConfig config;
    config.seed = 3;
    config.tracer = &tracer;
    core::ServingSimulation sim(spec, plan, config);
    const auto stats = sim.replaySerial(requests);
    const auto &st = stats.front();
    const auto &spans = tracer.spans();

    std::cout << "Distributed trace of one DRM1 request ("
              << plan.label() << "), as in the paper's Fig. 3:\n\n";
    std::cout << obs::renderRequestTrace(spans, st.id, 100);

    // Remote E2E of each attempt = its remote queue + remote compute.
    std::map<obs::SpanId, sim::Duration> remote_e2e;
    for (const auto &s : spans)
        if (s.kind == obs::SpanKind::RemoteQueue ||
            s.kind == obs::SpanKind::RemoteCompute)
            remote_e2e[s.parent] += s.duration();

    std::cout << "\nPer-RPC attempts (Section IV-B attribution):\n";
    sim::Duration slowest = -1, slowest_network = 0;
    for (const auto &s : spans) {
        if (s.kind != obs::SpanKind::RpcAttempt)
            continue;
        const sim::Duration network = s.duration() - remote_e2e[s.id];
        if (s.duration() > slowest) {
            slowest = s.duration();
            slowest_network = network;
        }
        std::cout << "  net " << s.net << " batch " << s.batch
                  << " -> shard " << s.shard << ": outstanding "
                  << sim::toMicros(s.duration()) << " us (remote e2e "
                  << sim::toMicros(remote_e2e[s.id]) << " us, network "
                  << sim::toMicros(network) << " us)\n";
    }

    // Also export the trace for interactive inspection in Perfetto /
    // chrome://tracing.
    const std::string json = obs::chromeTraceJson(spans);
    std::ofstream("trace_viewer_request.json") << json;
    std::cout << "\nChrome trace written to trace_viewer_request.json ("
              << json.size() << " bytes)\n";

    std::cout << "\nE2E " << sim::toMillis(st.e2e)
              << " ms = dense " << sim::toMillis(st.lat_dense)
              << " + embedded " << sim::toMillis(st.lat_embedded)
              << " + serde " << sim::toMillis(st.lat_serde)
              << " + service " << sim::toMillis(st.lat_service)
              << " + net-overhead " << sim::toMillis(st.lat_net_overhead)
              << " (ms)\n";

    bool ok = true;
    const auto check = [&ok](bool pass, const char *what) {
        if (!pass) {
            std::cout << "SELF-CHECK FAIL: " << what << "\n";
            ok = false;
        }
    };
    check(!spans.empty(), "the request left no spans");
    check(obs::checkConservation(spans).ok(stats.size()),
          "span conservation");
    check(slowest >= 0 && slowest_network == st.emb_network,
          "slowest attempt's network latency != RequestStats::emb_network");
    return ok ? 0 : 1;
}
