#include "fleet/autoscaler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sched/provision_loop.h"

namespace dri::fleet {

namespace {

void
require(bool ok, const char *what)
{
    if (!ok)
        throw std::invalid_argument(what);
}

/**
 * Watermark scale-up: a fleet-wide signal grows every shard by the
 * overshoot step (queueing anywhere inflates the request-level tail);
 * without one, only the shards over the high watermark creep by one
 * step. Returns whether any shard grew.
 */
bool
scaleUp(std::vector<int> &vec, const ReactiveConfig &c, bool fleet_wide,
        const EpochObservation &last)
{
    const int step = fleet_wide ? c.pressure_step : c.step;
    bool changed = false;
    for (std::size_t s = 0; s < vec.size(); ++s) {
        const bool hot = fleet_wide ||
                         (s < last.shard_utilization.size() &&
                          last.shard_utilization[s] > c.high_utilization);
        if (hot && vec[s] < c.max_replicas) {
            vec[s] = std::min(c.max_replicas, vec[s] + step);
            changed = true;
        }
    }
    return changed;
}

/**
 * Watermark scale-down: when the fleet-wide signal allows it and every
 * shard sits under the low watermark, shrink each idle shard by one
 * step. Returns whether any shard shrank.
 */
bool
scaleDown(std::vector<int> &vec, const ReactiveConfig &c, bool fleet_wide,
          const EpochObservation &last)
{
    if (!(fleet_wide && last.max_shard_utilization < c.low_utilization))
        return false;
    bool changed = false;
    for (std::size_t s = 0; s < vec.size(); ++s) {
        const bool idle = s >= last.shard_utilization.size() ||
                          last.shard_utilization[s] < c.low_utilization;
        if (idle && vec[s] > c.min_replicas) {
            vec[s] = std::max(c.min_replicas, vec[s] - c.step);
            changed = true;
        }
    }
    return changed;
}

} // namespace

// ---------------------------------------------------------------------------
// CapacityPlanner: ProvisionLoop sized at the rate, CapacitySearch probe
// verifying the SLO boundary.
// ---------------------------------------------------------------------------

CapacityPlanner::CapacityPlanner(const model::ModelSpec &spec,
                                 const core::ShardingPlan &plan,
                                 core::ServingConfig serving,
                                 PlannerConfig config,
                                 std::vector<workload::Request>
                                     planning_stream)
    : spec_(spec), plan_(plan), serving_(std::move(serving)),
      config_(config), planning_requests_(std::move(planning_stream))
{
    require(plan_.numShards() > 0, "CapacityPlanner: needs sparse shards");
    require(config_.headroom >= 1.0,
            "CapacityPlanner: headroom must be >= 1");
    require(config_.qps_quantum > 1.0,
            "CapacityPlanner: qps_quantum must be > 1");
    // One deterministic planning stream shared by every plan: paired
    // probes across rates, and across policies holding the same planner.
    if (planning_requests_.empty()) {
        workload::GeneratorConfig gc;
        gc.seed = config_.planning_seed;
        workload::RequestGenerator gen(spec_, gc);
        planning_requests_ = gen.generate(config_.planning_requests);
    } else if (planning_requests_.size() > config_.planning_requests) {
        planning_requests_.resize(config_.planning_requests);
    }
}

double
CapacityPlanner::quantize(double qps) const
{
    require(qps > 0.0, "CapacityPlanner: qps must be > 0");
    // Smallest integer power of the quantum at or above qps: small
    // forecast wiggles map to the same grid point (plan reuse), and
    // rounding *up* never under-provisions relative to the raw target.
    const double step = std::log(config_.qps_quantum);
    const double k = std::ceil(std::log(qps) / step - 1e-9);
    return std::exp(k * step);
}

std::vector<int>
CapacityPlanner::replicaVectorFor(double qps)
{
    const double target = quantize(qps * config_.headroom);
    const auto it = cache_.find(target);
    if (it != cache_.end())
        return it->second;
    ++plans_computed_;

    // Load-proportional sizing: measured per-shard demand at the target
    // rate through dc::provision to a replica-vector fixed point.
    sched::ProvisionLoopConfig pc;
    pc.qps = target;
    pc.target_utilization = config_.target_utilization;
    pc.max_iterations = config_.provision_iterations;
    pc.min_replicas = config_.min_replicas;
    pc.max_replicas = config_.max_replicas;
    sched::ProvisionLoop loop(spec_, plan_, serving_, pc);
    std::vector<int> vec = loop.run(planning_requests_).replicas;

    // Monotone regularization BEFORE verification: capacity is monotone
    // in replicas, so a cheaper-rate plan must never exceed a
    // pricier-rate plan. Measured demand wobbles +-1 replica between
    // nearby rates; without this the fleet reconfigures on noise (and
    // occasionally scales UP into a falling forecast). Running the
    // clamp first means the verify loop below only ever ADDS replicas —
    // a post-verification clamp could undo exactly the bump that made
    // the probe feasible. The cache is regularized inductively:
    // dominate every cached lower-rate plan, stay under every cached
    // higher-rate plan (cache_ iterates in ascending rate order).
    for (const auto &[rate, v] : cache_) {
        for (std::size_t s = 0; s < vec.size() && s < v.size(); ++s) {
            if (rate < target)
                vec[s] = std::max(vec[s], v[s]);
            else
                vec[s] = std::min(vec[s], v[s]);
        }
    }

    // SLO-boundary verification: utilization-sized vectors can still
    // miss a tail SLO (queueing at the sized utilization, straggler
    // interference). Probe the vector at the target rate and buy
    // replicas until the probe is feasible.
    if (config_.verify_slo_boundary) {
        sched::CapacitySearchConfig sc;
        sc.slo = config_.slo;
        for (int bump = 0; bump <= config_.max_verify_bumps; ++bump) {
            core::ServingConfig cfg = serving_;
            cfg.sparse_replicas_per_shard = vec;
            sched::CapacitySearch search(spec_, plan_, cfg, sc);
            if (search.probe(target, planning_requests_).feasible)
                break;
            bool grew = false;
            for (auto &r : vec)
                if (r < config_.max_replicas) {
                    ++r;
                    grew = true;
                }
            if (!grew)
                break; // fleet-wide replica cap: nothing left to buy
        }
    }

    cache_.emplace(target, vec);
    return vec;
}

// ---------------------------------------------------------------------------
// StaticPeak.
// ---------------------------------------------------------------------------

StaticPeakAutoscaler::StaticPeakAutoscaler(
    std::shared_ptr<CapacityPlanner> planner)
    : planner_(std::move(planner))
{
}

std::vector<int>
StaticPeakAutoscaler::decide(int, const workload::DiurnalLoadModel &load,
                             const EpochObservation *)
{
    if (vector_.empty())
        vector_ = planner_->replicaVectorFor(load.peakForecastQps());
    return vector_;
}

// ---------------------------------------------------------------------------
// Reactive.
// ---------------------------------------------------------------------------

ReactiveAutoscaler::ReactiveAutoscaler(std::vector<int> initial,
                                       ReactiveConfig config)
    : vector_(std::move(initial)), config_(config)
{
    require(!vector_.empty(), "ReactiveAutoscaler: empty initial vector");
    require(config_.low_utilization < config_.high_utilization,
            "ReactiveAutoscaler: hysteresis band must be non-empty");
    for (auto &r : vector_)
        r = std::clamp(r, config_.min_replicas, config_.max_replicas);
}

std::vector<int>
ReactiveAutoscaler::decide(int epoch, const workload::DiurnalLoadModel &,
                           const EpochObservation *last)
{
    if (last == nullptr)
        return vector_; // nothing measured yet: serve the seed vector

    const double p99_guard =
        config_.p99_guard_fraction * config_.slo.p99_ms;
    const bool latency_pressure = last->p99_ms > p99_guard ||
                                  last->shed_rate >
                                      config_.slo.max_shed_rate;
    const bool util_pressure =
        last->max_shard_utilization > config_.high_utilization;

    // Latency pressure is the fleet-wide scale-up signal.
    if (latency_pressure || util_pressure) {
        if (scaleUp(vector_, config_, latency_pressure, *last))
            last_change_epoch_ = epoch;
        return vector_;
    }

    // Scale down only inside the hysteresis band's lower half, with
    // latency slack, and only after the cooldown since the last change.
    if (epoch - last_change_epoch_ > config_.cooldown_epochs &&
        scaleDown(vector_, config_, last->p99_ms < p99_guard, *last))
        last_change_epoch_ = epoch;
    return vector_;
}

// ---------------------------------------------------------------------------
// Burn-rate.
// ---------------------------------------------------------------------------

BurnRateAutoscaler::BurnRateAutoscaler(std::vector<int> initial,
                                       BurnRateConfig config)
    : vector_(std::move(initial)), config_(config)
{
    require(!vector_.empty(), "BurnRateAutoscaler: empty initial vector");
    for (auto &r : vector_)
        r = std::clamp(r, config_.base.min_replicas,
                       config_.base.max_replicas);

    // Objectives run on the epoch index as their clock: horizon N
    // "seconds" with N buckets is one bucket per epoch.
    const auto objective = [&](const char *name, double budget) {
        obs::SloObjective o;
        o.name = name;
        o.budget_fraction = budget;
        o.fast_horizon_s = config_.fast_window_epochs;
        o.slow_horizon_s = config_.slow_window_epochs;
        o.buckets = config_.slow_window_epochs;
        o.fast_burn_threshold = config_.fast_burn_threshold;
        o.slow_burn_threshold = config_.slow_burn_threshold;
        o.pending_ticks = config_.pending_ticks;
        o.resolve_ticks = config_.resolve_ticks;
        return monitor_.addObjective(o);
    };
    const double shed_budget = config_.shed_budget_fraction > 0.0
                                   ? config_.shed_budget_fraction
                                   : config_.base.slo.max_shed_rate;
    latency_objective_ =
        objective("latency", config_.latency_budget_fraction);
    shed_objective_ = objective("shed", shed_budget);
}

std::vector<int>
BurnRateAutoscaler::decide(int epoch, const workload::DiurnalLoadModel &,
                           const EpochObservation *last)
{
    if (last == nullptr)
        return vector_; // nothing measured yet: serve the seed vector

    // Fold the finished epoch into the error budgets. Mid-epoch stamp:
    // bucket boundaries sit at integers, so epoch e is period e.
    const double t = static_cast<double>(last->epoch) + 0.5;
    const std::int64_t served =
        std::max<std::int64_t>(0, last->requests - last->shed_requests);
    const std::int64_t over = std::clamp<std::int64_t>(
        last->over_latency_target, 0, served);
    monitor_.record(latency_objective_, t,
                    static_cast<std::uint64_t>(served - over),
                    static_cast<std::uint64_t>(over));
    monitor_.record(shed_objective_, t,
                    static_cast<std::uint64_t>(served),
                    static_cast<std::uint64_t>(last->shed_requests));
    monitor_.evaluate(t);

    const bool alert_firing = monitor_.anyFiring();
    const bool util_pressure =
        last->max_shard_utilization > config_.base.high_utilization;

    // A firing burn-rate alert is the fleet-wide scale-up signal (the
    // budget is provably burning everywhere the tail reaches).
    if (alert_firing || util_pressure) {
        healthy_streak_ = 0;
        if (scaleUp(vector_, config_.base, alert_firing, *last))
            last_change_epoch_ = epoch;
        return vector_;
    }

    // Budget health: nothing firing and both slow burns comfortably
    // inside budget. Only a sustained healthy streak may scale down.
    const bool healthy =
        monitor_.status(latency_objective_).slow_burn <
            config_.health_burn_fraction * config_.slow_burn_threshold &&
        monitor_.status(shed_objective_).slow_burn <
            config_.health_burn_fraction * config_.slow_burn_threshold;
    healthy_streak_ = healthy ? healthy_streak_ + 1 : 0;

    if (epoch - last_change_epoch_ > config_.base.cooldown_epochs &&
        scaleDown(vector_, config_.base,
                  healthy_streak_ >= config_.healthy_epochs, *last))
        last_change_epoch_ = epoch;
    return vector_;
}

// ---------------------------------------------------------------------------
// Predictive.
// ---------------------------------------------------------------------------

PredictiveAutoscaler::PredictiveAutoscaler(
    std::shared_ptr<CapacityPlanner> planner)
    : planner_(std::move(planner))
{
}

std::vector<int>
PredictiveAutoscaler::decide(int epoch,
                             const workload::DiurnalLoadModel &load,
                             const EpochObservation *)
{
    return planner_->replicaVectorFor(load.forecastQps(epoch));
}

// ---------------------------------------------------------------------------
// Policy factory.
// ---------------------------------------------------------------------------

namespace {

const std::vector<std::string> kAutoscalers = {"burn-rate", "predictive",
                                               "reactive", "static-peak"};

std::shared_ptr<CapacityPlanner>
requirePlanner(const AutoscalerInputs &in, const std::string &name)
{
    if (!in.planner)
        throw std::invalid_argument("autoscaler \"" + name +
                                    "\" needs a capacity planner");
    return in.planner;
}

} // namespace

std::unique_ptr<Autoscaler>
makeAutoscaler(const std::string &name, const AutoscalerInputs &inputs)
{
    if (name == "static-peak")
        return std::make_unique<StaticPeakAutoscaler>(
            requirePlanner(inputs, name));
    if (name == "predictive")
        return std::make_unique<PredictiveAutoscaler>(
            requirePlanner(inputs, name));
    if (name == "reactive")
        return std::make_unique<ReactiveAutoscaler>(inputs.initial_vector,
                                                    inputs.reactive);
    if (name == "burn-rate") {
        // Trigger parameters from burn_rate, actuation from the shared
        // reactive block: the studies compare triggers, not actuation
        // tunings.
        BurnRateConfig cfg = inputs.burn_rate;
        cfg.base = inputs.reactive;
        return std::make_unique<BurnRateAutoscaler>(inputs.initial_vector,
                                                    cfg);
    }
    std::string known;
    for (const auto &n : kAutoscalers)
        known += (known.empty() ? "" : ", ") + n;
    throw std::invalid_argument("unknown autoscaler \"" + name +
                                "\" (registered: " + known + ")");
}

std::vector<std::string>
registeredAutoscalers()
{
    return kAutoscalers;
}

} // namespace dri::fleet
