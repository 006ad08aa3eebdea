/**
 * @file
 * Simulated-time definitions. All simulation timestamps and durations are
 * integer nanoseconds; helpers convert to/from the human units used in
 * reports (microseconds and milliseconds).
 */
#pragma once

#include <cstdint>

namespace dri::sim {

/** Absolute simulated timestamp in nanoseconds since simulation start. */
using SimTime = std::int64_t;

/** Duration in nanoseconds. */
using Duration = std::int64_t;

constexpr Duration kNanosecond = 1;
constexpr Duration kMicrosecond = 1000;
constexpr Duration kMillisecond = 1000 * 1000;
constexpr Duration kSecond = 1000LL * 1000 * 1000;

constexpr double
toMicros(Duration d)
{
    return static_cast<double>(d) / static_cast<double>(kMicrosecond);
}

constexpr double
toMillis(Duration d)
{
    return static_cast<double>(d) / static_cast<double>(kMillisecond);
}

constexpr Duration
fromMillis(double ms)
{
    return static_cast<Duration>(ms * static_cast<double>(kMillisecond));
}

} // namespace dri::sim
