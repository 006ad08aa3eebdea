/**
 * @file
 * The benchmark's workloads. Each builds its inputs from the seed, times
 * calls into the repository's public functions for `seconds` of host
 * time, checks the outputs, and fills a Record.
 */
#pragma once

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its spans (Chrome trace JSON). */
    std::string trace_out;
};

/** DRM2 open loop at 1500 QPS, hedged, result cache on, obs detached. */
void runOpenHedged(const Options &opt, Record &rec);
/** DRM1 serial replay over 8 shards with the obs stack attached. */
void runSerialSampled(const Options &opt, Record &rec);
/** Smoke fleet study with faults, 3 policies x 2 seeds, parallel. */
void runFleetChaosSweep(const Options &opt, Record &rec);

/** Set-up repetitions (unless a workload sets more): setup_s is their median. */
constexpr int kSetupReps = 3;
/** Minimum timed repetitions, whatever `seconds` says. */
constexpr int kMinReps = 3;

} // namespace perfbench
