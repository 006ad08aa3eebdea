/**
 * @file
 * The benchmark's own measurement harness: host clocks, a counting
 * allocator, process memory, the span log of the traced run, and the
 * self-describing result record every workload fills.
 *
 * Nothing here reaches into the simulator: the workloads time calls into
 * the repository's public functions from the benchmark's files and read
 * the counters those modules already expose.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/request_stats.h"

namespace perfbench {

// ---- Host time -------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/** Seconds since `t0`. */
double secondsSince(Clock::time_point t0);

double median(std::vector<double> v);

/** num / den, or 0 when den is 0. */
inline double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---- Allocation counter ------------------------------------------------------

/**
 * Global operator new is replaced in harness.cc. While counting is on,
 * every allocation (from any thread) bumps two relaxed atomics; while it
 * is off the replacement costs one relaxed load.
 */
struct AllocCount
{
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;
};
void setAllocCounting(bool on);
AllocCount allocCount();

// ---- Process memory ------------------------------------------------------------

/** Current resident set (VmRSS), KiB. */
std::int64_t currentRssKb();
/** Peak resident set (VmHWM) since start or the last reset, KiB. */
std::int64_t peakRssKb();

/**
 * Peak-RSS tracking across HWM resets: remembers the process-wide peak,
 * then resets the kernel's high-water mark to the current RSS so the
 * growth of the next region can be read from VmHWM alone. Returns false
 * (and leaves the mark alone) where the kernel refuses the reset.
 */
class MemoryMeter
{
  public:
    /** Start a region: returns false if the reset was refused. */
    bool beginRegion();
    /** Peak growth (KiB) of the region over the RSS at its start. */
    std::int64_t regionGrowthKb() const;
    /** Process-wide peak RSS so far, KiB. */
    std::int64_t processPeakKb() const;

  private:
    std::int64_t peak_before_kb_ = 0;
    std::int64_t region_start_kb_ = 0;
    bool reset_ok_ = false;
};

// ---- Span log (traced run only) ------------------------------------------------

/**
 * Spans recorded by the benchmark around each timed public call: name,
 * start, end, parent and host thread. Kept in memory and written out as
 * a Chrome trace when the run ends. Thread-safe: sweep cells record from
 * worker threads.
 */
class SpanLog
{
  public:
    using Id = std::int64_t;
    static constexpr Id kNone = -1;

    explicit SpanLog(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

    bool enabled() const { return enabled_; }

    Id begin(const std::string &name, Id parent = kNone);
    void end(Id id);

    /** Per-name count, total and self time (ms), sorted by self time. */
    struct Summary
    {
        std::string name;
        std::uint64_t count = 0;
        double total_ms = 0.0;
        double self_ms = 0.0;
    };
    std::vector<Summary> summarize() const;

    /** Chrome-trace JSON ("X" events, microseconds). */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        Id parent = kNone;
        double begin_us = 0.0;
        double end_us = -1.0;
        std::size_t tid = 0;
    };

    double nowUs() const;

    bool enabled_;
    Clock::time_point t0_;
    mutable std::mutex mu_; //!< guards spans_ and tids_
    std::vector<Span> spans_;
    std::map<std::thread::id, std::size_t> tids_;
};

/** RAII span; a no-op when the log is disabled. */
class Scope
{
  public:
    Scope(SpanLog &log, const std::string &name,
          SpanLog::Id parent = SpanLog::kNone)
        : log_(log), id_(log.enabled() ? log.begin(name, parent)
                                       : SpanLog::kNone)
    {
    }
    ~Scope()
    {
        if (id_ != SpanLog::kNone)
            log_.end(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    SpanLog::Id id() const { return id_; }

  private:
    SpanLog &log_;
    SpanLog::Id id_;
};

// ---- Result record ---------------------------------------------------------------

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Everything one workload run reports, rendered as one JSON line. */
struct Record
{
    std::string workload;
    std::string why;
    std::uint64_t seed = 0;
    bool traced = false;
    int threads = 1;
    std::map<std::string, std::string> inputs; //!< name -> rendered value
    std::map<std::string, double> traffic;     //!< observed traffic shape
    std::vector<std::pair<std::string, bool>> checks;
    std::vector<std::string> notes;
    /** Output identity, equal on every repetition (checked). */
    std::string fingerprint;
    std::uint64_t attempted = 0; //!< timed calls made
    std::uint64_t failed = 0;    //!< timed calls that threw
    /** Raw per-repetition host times behind the medians, seconds. */
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, Metric> end_to_end;
    /** Only the layers this workload exercises. */
    std::map<std::string, Metric> per_layer;
    std::vector<SpanLog::Summary> spans;
    std::string span_file;

    /** Record a self-check; returns `ok`. */
    bool check(const std::string &name, bool ok);
    bool allChecksPass() const;

    void e2e(const std::string &name, double value, const std::string &unit)
    {
        end_to_end[name] = Metric{value, unit};
    }
    void layer(const std::string &name, double value,
               const std::string &unit)
    {
        per_layer[name] = Metric{value, unit};
    }

    std::string json() const;
};

// ---- Correctness helpers -----------------------------------------------------------

/** FNV-1a over the bit patterns of every RequestStats field. */
std::uint64_t fingerprint(const std::vector<dri::core::RequestStats> &stats);

/** "0x..." rendering of a fingerprint. */
std::string hex(std::uint64_t v);

/** Stable 64-bit mix for deriving per-workload seeds. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t salt);

/** Build type, compiler and host facts for the record. */
std::map<std::string, std::string> buildInfo();

} // namespace perfbench
