/**
 * @file
 * The `fleet-chaos-sweep` workload: the smoke fleet study with a seeded
 * fault schedule (replica crash, slow replica, snapshot storm in
 * different epochs), swept over 3 policies x 2 diurnal seeds through
 * fleet::ParallelSweep. One timed repetition is one whole sweep; each
 * cell builds its own ServingSimulations, prewarms, plans and autoscales.
 */
#include <algorithm>

#include "fleet/parallel_sweep.h"
#include "fleet/study.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dri;

const std::vector<std::string> kPolicies{"static-peak", "reactive",
                                         "predictive"};

/** Study set-up plus the seeded inputs the sweep replays. */
struct FleetInputs
{
    fleet::FleetStudy study;
    std::vector<fleet::SweepCell> cells;
};

/**
 * Fault epochs drawn from the seed within fixed, non-overlapping ranges
 * of the 12-epoch smoke trace, so every event fires in every run.
 */
fleet::FaultSchedule
faultSchedule(std::uint64_t seed, int shards)
{
    const auto pick = [seed](std::uint64_t salt, std::uint64_t n) {
        return static_cast<int>(deriveSeed(seed, salt) % n);
    };
    const int crash_epoch = 2 + pick(10, 2);
    const int slow_epoch = 5 + pick(11, 2);
    const int storm_epoch = 9 + pick(12, 2);
    fleet::FaultSchedule f;
    f.crashReplica(pick(13, shards), 1, crash_epoch, crash_epoch + 1);
    f.slowReplica(pick(14, shards), 0, 4.0, slow_epoch, slow_epoch + 2);
    f.snapshotStorm(storm_epoch, 0.3);
    return f;
}

/** One sweep's ledgers and host times. */
struct Sweep
{
    std::vector<fleet::SweepResult> results;
    std::vector<double> cell_s;
    double sweep_s = 0.0;
    AllocCount allocs;
};

Sweep
runSweep(const FleetInputs &in, int threads, bool traced, SpanLog &log,
         const char *name)
{
    SpanLog disabled(false);
    SpanLog &spans = traced ? log : disabled;
    Sweep s;
    s.cell_s.assign(in.cells.size(), 0.0);
    const auto index = [&in](const fleet::SweepCell &c) {
        for (std::size_t i = 0; i < in.cells.size(); ++i)
            if (in.cells[i].policy == c.policy && in.cells[i].seed == c.seed)
                return i;
        return in.cells.size();
    };
    const AllocCount a0 = allocCount();
    if (traced)
        setAllocCounting(true);
    const auto t0 = Clock::now();
    {
        Scope sweep_span(spans, name);
        const SpanLog::Id parent = sweep_span.id();
        // Each cell writes only its own slot of cell_s.
        const fleet::ParallelSweep::CellRunner runner =
            [&](const fleet::SweepCell &cell) {
                Scope cell_span(spans, "fleet.cell:" + cell.policy, parent);
                const auto tc = Clock::now();
                auto stats = fleet::runStudyCell(in.study, cell);
                const std::size_t i = index(cell);
                if (i < s.cell_s.size())
                    s.cell_s[i] = secondsSince(tc);
                return stats;
            };
        s.results = fleet::ParallelSweep(threads).run(in.cells, runner);
    }
    s.sweep_s = secondsSince(t0);
    if (traced) {
        setAllocCounting(false);
        const AllocCount a1 = allocCount();
        s.allocs = {a1.calls - a0.calls, a1.bytes - a0.bytes};
    }
    return s;
}

} // namespace

void
runFleetChaosSweep(const Options &opt, Record &rec)
{
    rec.why = "many short replays on fresh ServingSimulations plus prewarm, "
              "planner probes, autoscaling, the fault control surface and "
              "thread scaling; set-up is recordTrace + cache-model build";
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    const int threads = std::max(1, std::min(4, hw));
    rec.threads = threads;
    SpanLog log(opt.trace);

    // ---- Set-up ---------------------------------------------------------
    FleetInputs in;
    std::vector<double> setup_s;
    {
        Scope setup_span(log, "setup");
        for (int i = 0; i < kSetupReps; ++i) {
            // Drop the previous study first: peak RSS is one study's.
            in = FleetInputs{};
            Scope s(log, "fleet.makeFleetStudy", setup_span.id());
            const auto t0 = Clock::now();
            in.study = fleet::makeFleetStudy(/*smoke=*/true);
            setup_s.push_back(secondsSince(t0));
        }
    }
    in.study.fleet.faults =
        faultSchedule(opt.seed, in.study.plan.numShards());
    in.cells = fleet::sweepGrid(
        kPolicies, {deriveSeed(opt.seed, 3), deriveSeed(opt.seed, 4)});
    const auto &fcfg = in.study.fleet;
    const double req_per_sweep = static_cast<double>(fcfg.epochs) *
                                 static_cast<double>(fcfg.requests_per_epoch) *
                                 static_cast<double>(in.cells.size());

    rec.inputs = {{"study", "makeFleetStudy(smoke)"},
                  {"policies", "static-peak, reactive, predictive"},
                  {"cells", std::to_string(in.cells.size())},
                  {"epochs", std::to_string(fcfg.epochs)},
                  {"requests_per_epoch",
                   std::to_string(fcfg.requests_per_epoch)},
                  {"prewarm_requests", std::to_string(fcfg.prewarm_requests)},
                  {"fault_schedule", hex(fcfg.faults.fingerprint())}};
    for (const auto &ev : fcfg.faults.events())
        rec.inputs["fault." + ev.name()] =
            "epochs [" + std::to_string(ev.start_epoch) + ", " +
            std::to_string(ev.end_epoch) + ") shard " +
            std::to_string(ev.shard);

    // ---- Timed sweeps -----------------------------------------------------
    std::vector<Sweep> warm, traced;
    Sweep cold;
    std::vector<std::uint64_t> ref_fps;
    bool fps_equal = true, shapes_ok = true, traced_equal = true;
    const auto verify = [&](const Sweep &s) {
        ++rec.attempted;
        std::vector<std::uint64_t> fps;
        shapes_ok &= s.results.size() == in.cells.size();
        for (std::size_t i = 0; i < s.results.size(); ++i) {
            const auto &r = s.results[i];
            shapes_ok &= r.cell.policy == in.cells[i].policy &&
                         r.cell.seed == in.cells[i].seed &&
                         static_cast<int>(r.stats.epochs.size()) ==
                             fcfg.epochs;
            fps.push_back(r.stats.fingerprint());
            fps.push_back(r.stats.telemetryFingerprint());
        }
        if (ref_fps.empty())
            ref_fps = fps;
        fps_equal &= fps == ref_fps;
        return fps == ref_fps;
    };

    MemoryMeter meter;
    const bool region_reset = meter.beginRegion();
    // Memory is read after the cold sweep; see serving_workloads.cc.
    double rss_growth_kb = 0.0, peak_kb = 0.0;
    try {
        cold = runSweep(in, threads, opt.trace, log, "fleet.sweep[cold]");
        rss_growth_kb = static_cast<double>(meter.regionGrowthKb());
        peak_kb = static_cast<double>(meter.processPeakKb());
        verify(cold);
        const auto t_loop = Clock::now();
        if (!opt.trace) {
            while (static_cast<int>(warm.size()) < kMinReps ||
                   secondsSince(t_loop) < opt.seconds) {
                warm.push_back(
                    runSweep(in, threads, false, log, "fleet.sweep"));
                verify(warm.back());
            }
        } else {
            while (traced.size() < 2 || secondsSince(t_loop) < opt.seconds) {
                warm.push_back(
                    runSweep(in, threads, false, log, "fleet.sweep"));
                traced_equal &= verify(warm.back());
                traced.push_back(
                    runSweep(in, threads, true, log, "fleet.sweep"));
                traced_equal &= verify(traced.back());
            }
        }
    } catch (const std::exception &e) {
        ++rec.attempted;
        ++rec.failed;
        rec.notes.push_back(std::string("sweep threw: ") + e.what());
    }

    // ---- Ledger totals (identical on every sweep) ---------------------------
    double machine_hours = 0.0, shed = 0.0, hit_rate = 0.0, sparse_util = 0.0;
    double epochs = 0.0, peak_queue = 0.0;
    int slo_epochs = 0, reconfigs = 0;
    std::size_t scenarios = 0, scenarios_with_effect = 0;
    for (const auto &r : cold.results) {
        machine_hours += r.stats.totalMachineHours();
        slo_epochs += r.stats.sloViolationEpochs();
        reconfigs += r.stats.reconfigurations();
        shed += static_cast<double>(r.stats.totalShedRequests());
        for (const auto &e : r.stats.epochs) {
            hit_rate += e.result_cache_hit_rate;
            sparse_util += e.mean_sparse_utilization;
            peak_queue =
                std::max(peak_queue, static_cast<double>(e.peak_replica_queue));
            epochs += 1.0;
        }
        for (const auto &o : r.stats.telemetry.scenarios) {
            ++scenarios;
            scenarios_with_effect +=
                (o.blast_radius > 0.0 || o.min_attainment < 1.0 ||
                 o.shed_requests > 0)
                    ? 1
                    : 0;
        }
    }
    const std::size_t events = fcfg.faults.events().size();

    // ---- Self-checks ----------------------------------------------------------
    rec.check("every_sweep_ran", rec.failed == 0 && !warm.empty());
    rec.check("fingerprint_identical_across_sweeps", fps_equal);
    rec.check("results_equal_cells_and_epochs", shapes_ok);
    rec.check("every_fault_event_scored",
              scenarios == events * cold.results.size());
    rec.check("faults_took_effect", scenarios_with_effect > 0);
    rec.check("autoscaler_reconfigured", reconfigs > 0);
    rec.check("result_cache_hits", hit_rate > 0.0);
    if (opt.trace)
        rec.check("traced_sim_metrics_equal_untraced",
                  traced_equal && !traced.empty());

    std::uint64_t combined = 0;
    for (const auto fp : ref_fps)
        combined = deriveSeed(combined, fp);
    rec.fingerprint = hex(combined);
    rec.traffic["result_cache_hit_ratio"] = ratio(hit_rate, epochs);
    double hedge_rate = 0.0;
    for (const auto &r : cold.results)
        for (const auto &e : r.stats.epochs)
            hedge_rate += e.hedge_rate;
    rec.traffic["hedge_rate"] = ratio(hedge_rate, epochs);
    rec.traffic["fault_events_fired"] =
        ratio(static_cast<double>(scenarios),
              static_cast<double>(cold.results.size()));
    rec.traffic["fault_events_with_effect"] =
        static_cast<double>(scenarios_with_effect);

    // ---- End-to-end metrics ---------------------------------------------------
    std::vector<double> rps;
    for (const auto &s : warm) {
        rps.push_back(req_per_sweep / s.sweep_s);
        rec.samples["sweep_s"].push_back(s.sweep_s);
    }
    rec.samples["setup_s"] = setup_s;
    rec.e2e("setup_s", median(setup_s), "s");
    rec.e2e("sim_req_per_s", median(rps), "1/s");
    rec.e2e("peak_rss_mb", peak_kb / 1024.0, "MB");
    rec.e2e("rss_kb_per_req", rss_growth_kb / req_per_sweep, "KB");
    if (!region_reset)
        rec.notes.push_back("peak-RSS reset refused: rss_kb_per_req is "
                            "growth over the set-up peak");
    rec.e2e("failed_share", ratio(shed, req_per_sweep), "ratio");
    rec.e2e("machine_hours", machine_hours, "h");
    rec.e2e("slo_violation_epochs", slo_epochs, "count");

    // ---- Per-layer metrics (traced run) -----------------------------------------
    if (!opt.trace)
        return;
    std::vector<double> cell_med, cell_max, efficiency, traced_rps;
    AllocCount allocs;
    for (const auto &s : traced) {
        double sum = 0.0;
        for (const double c : s.cell_s)
            sum += c;
        cell_med.push_back(median(s.cell_s));
        cell_max.push_back(*std::max_element(s.cell_s.begin(), s.cell_s.end()));
        efficiency.push_back(ratio(sum, threads * s.sweep_s));
        traced_rps.push_back(req_per_sweep / s.sweep_s);
        allocs = s.allocs;
    }
    rec.layer("fleet.make_study_s", median(setup_s), "s");
    rec.layer("alloc.per_req", static_cast<double>(allocs.calls) / req_per_sweep,
              "count");
    rec.layer("alloc.bytes_per_req",
              static_cast<double>(allocs.bytes) / req_per_sweep, "B");
    rec.layer("fleet.cell_s_median", median(cell_med), "s");
    rec.layer("fleet.cell_s_max", median(cell_max), "s");
    rec.layer("fleet.parallel_efficiency", median(efficiency), "ratio");
    rec.layer("fleet.cold_sweep_s", cold.sweep_s, "s");
    rec.layer("fleet.reconfigurations", reconfigs, "count");
    rec.layer("fleet.result_cache_hit_rate", ratio(hit_rate, epochs), "ratio");
    rec.layer("fleet.mean_sparse_util", ratio(sparse_util, epochs), "ratio");
    rec.layer("fleet.peak_replica_queue", peak_queue, "count");
    const double untraced = median(rps);
    const double traced_med = median(traced_rps);
    rec.layer("trace.sim_req_per_s", traced_med, "1/s");
    rec.layer("trace.untraced_sim_req_per_s", untraced, "1/s");
    rec.layer("trace.overhead_ratio", ratio(untraced, traced_med) - 1.0,
              "ratio");
    rec.notes.push_back(
        "fleet cells build their ServingSimulations inside FleetSim, so the "
        "serving, engine and obs layers are not separately measurable here");
    rec.spans = log.summarize();
    if (!opt.trace_out.empty() && log.writeChromeTrace(opt.trace_out))
        rec.span_file = opt.trace_out;
}

} // namespace perfbench
