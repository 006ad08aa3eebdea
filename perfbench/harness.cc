#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>

// ---- Counting operator new -------------------------------------------------------

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_alloc_calls{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void *
countedAlloc(std::size_t n)
{
    if (g_counting.load(std::memory_order_relaxed)) {
        g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
        g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
    }
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
setAllocCounting(bool on)
{
    g_counting.store(on, std::memory_order_relaxed);
}

AllocCount
allocCount()
{
    return {g_alloc_calls.load(std::memory_order_relaxed),
            g_alloc_bytes.load(std::memory_order_relaxed)};
}

// ---- Process memory ------------------------------------------------------------

namespace {

/** A "Vm...:  <n> kB" field of /proc/self/status, or -1. */
std::int64_t
statusFieldKb(const char *field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::size_t len = std::strlen(field);
    while (std::getline(in, line)) {
        if (line.compare(0, len, field) == 0 && line.size() > len &&
            line[len] == ':')
            return std::atoll(line.c_str() + len + 1);
    }
    return -1;
}

} // namespace

std::int64_t
currentRssKb()
{
    return statusFieldKb("VmRSS");
}

std::int64_t
peakRssKb()
{
    const std::int64_t hwm = statusFieldKb("VmHWM");
    if (hwm >= 0)
        return hwm;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

bool
MemoryMeter::beginRegion()
{
    peak_before_kb_ = std::max(peak_before_kb_, peakRssKb());
    // Writing 5 to clear_refs resets VmHWM to the current RSS (Linux >= 4.0).
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    reset_ok_ = static_cast<bool>(clear);
    region_start_kb_ = reset_ok_ ? currentRssKb() : peakRssKb();
    return reset_ok_;
}

std::int64_t
MemoryMeter::regionGrowthKb() const
{
    return std::max<std::int64_t>(0, peakRssKb() - region_start_kb_);
}

std::int64_t
MemoryMeter::processPeakKb() const
{
    return std::max(peak_before_kb_, peakRssKb());
}

// ---- Span log ------------------------------------------------------------------

double
SpanLog::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
}

SpanLog::Id
SpanLog::begin(const std::string &name, Id parent)
{
    const double at = nowUs();
    std::lock_guard<std::mutex> lock(mu_);
    const auto tid =
        tids_.emplace(std::this_thread::get_id(), tids_.size()).first->second;
    spans_.push_back(Span{name, parent, at, -1.0, tid});
    return static_cast<Id>(spans_.size() - 1);
}

void
SpanLog::end(Id id)
{
    const double at = nowUs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_us = at;
}

std::vector<SpanLog::Summary>
SpanLog::summarize() const
{
    std::lock_guard<std::mutex> lock(mu_);
    // Self time = duration minus the union of the children's intervals
    // (children on worker threads may overlap each other).
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const auto &s : spans_)
        if (s.parent != kNone && s.end_us >= 0.0)
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                s.begin_us, s.end_us);
    std::map<std::string, Summary> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto &s = spans_[i];
        if (s.end_us < 0.0)
            continue;
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0, run_b = 0.0, run_e = -1.0;
        for (const auto &[b, e] : kids) {
            if (b > run_e) {
                covered += std::max(0.0, run_e - run_b);
                run_b = b;
                run_e = e;
            } else {
                run_e = std::max(run_e, e);
            }
        }
        covered += std::max(0.0, run_e - run_b);
        auto &sum = by_name[s.name];
        sum.name = s.name;
        sum.count += 1;
        sum.total_ms += (s.end_us - s.begin_us) / 1e3;
        sum.self_ms += std::max(0.0, s.end_us - s.begin_us - covered) / 1e3;
    }
    std::vector<Summary> out;
    for (auto &kv : by_name)
        out.push_back(kv.second);
    std::sort(out.begin(), out.end(), [](const Summary &a, const Summary &b) {
        return a.self_ms > b.self_ms;
    });
    return out;
}

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto &s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"name\":" << jsonString(s.name)
            << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
            << ",\"ts\":" << jsonNumber(s.begin_us) << ",\"dur\":"
            << jsonNumber(s.end_us >= 0.0 ? s.end_us - s.begin_us : 0.0)
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
            << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

// ---- Record ----------------------------------------------------------------------

bool
Record::check(const std::string &name, bool ok)
{
    checks.emplace_back(name, ok);
    return ok;
}

bool
Record::allChecksPass() const
{
    return std::all_of(checks.begin(), checks.end(),
                       [](const auto &c) { return c.second; });
}

namespace {

std::string
metricsJson(const std::map<std::string, Metric> &metrics)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        out += first ? "" : ",";
        first = false;
        out += jsonString(name) + ":{\"value\":" +
               jsonNumber(m.value) +
               ",\"unit\":" + jsonString(m.unit) + "}";
    }
    return out + "}";
}

} // namespace

std::string
Record::json() const
{
    std::ostringstream o;
    o << "{\"workload\":" << jsonString(workload)
      << ",\"why\":" << jsonString(why) << ",\"seed\":" << seed
      << ",\"traced\":" << (traced ? "true" : "false")
      << ",\"threads\":" << threads << ",\"build\":{";
    bool first = true;
    for (const auto &[k, v] : buildInfo()) {
        o << (first ? "" : ",") << jsonString(k) << ":" << jsonString(v);
        first = false;
    }
    o << "},\"inputs\":{";
    first = true;
    for (const auto &[k, v] : inputs) {
        o << (first ? "" : ",") << jsonString(k) << ":" << jsonString(v);
        first = false;
    }
    o << "},\"traffic\":{";
    first = true;
    for (const auto &[k, v] : traffic) {
        o << (first ? "" : ",") << jsonString(k) << ":" << jsonNumber(v);
        first = false;
    }
    o << "},\"checks\":{";
    first = true;
    for (const auto &[k, ok] : checks) {
        o << (first ? "" : ",") << jsonString(k) << ":"
          << (ok ? "true" : "false");
        first = false;
    }
    o << "},\"notes\":[";
    for (std::size_t i = 0; i < notes.size(); ++i)
        o << (i ? "," : "") << jsonString(notes[i]);
    o << "],\"fingerprint\":" << jsonString(fingerprint)
      << ",\"correct\":" << (allChecksPass() ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"samples\":{";
    first = true;
    for (const auto &[k, v] : samples) {
        o << (first ? "" : ",") << jsonString(k) << ":[";
        for (std::size_t i = 0; i < v.size(); ++i)
            o << (i ? "," : "") << jsonNumber(v[i]);
        o << "]";
        first = false;
    }
    o << "},\"end_to_end\":" << metricsJson(end_to_end)
      << ",\"per_layer\":" << metricsJson(per_layer) << ",\"spans\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto &s = spans[i];
        o << (i ? "," : "") << "{\"name\":" << jsonString(s.name)
          << ",\"count\":" << s.count
          << ",\"total_ms\":" << jsonNumber(s.total_ms)
          << ",\"self_ms\":" << jsonNumber(s.self_ms) << "}";
    }
    o << "],\"span_file\":" << jsonString(span_file) << "}";
    return o.str();
}

// ---- Correctness helpers ---------------------------------------------------------

namespace {

struct Fnv
{
    std::uint64_t h = 1469598103934665603ULL;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
    void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
    void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
    void
    add(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    void
    add(const std::vector<double> &v)
    {
        add(static_cast<std::uint64_t>(v.size()));
        for (const double x : v)
            add(x);
    }
};

} // namespace

std::uint64_t
fingerprint(const std::vector<dri::core::RequestStats> &stats)
{
    Fnv f;
    f.add(static_cast<std::uint64_t>(stats.size()));
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
        f.add(static_cast<std::uint64_t>(s.shed_reason));
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
        f.add(s.shard_op_ns);
        f.add(s.shard_net_op_ns);
        f.add(s.main_op_ns);
    }
    return f.h;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t salt)
{
    // splitmix64 finalizer over (seed, salt).
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::map<std::string, std::string>
buildInfo()
{
    std::map<std::string, std::string> info;
#ifdef PERFBENCH_BUILD_TYPE
    info["build_type"] = PERFBENCH_BUILD_TYPE;
#else
    info["build_type"] = "unknown";
#endif
#ifdef NDEBUG
    info["ndebug"] = "true";
#else
    info["ndebug"] = "false";
#endif
    info["optimized"] =
        info["build_type"] == "Release" && info["ndebug"] == "true"
            ? "true"
            : "false (timings are not comparable to a Release build)";
#if defined(__clang__)
    info["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    info["compiler"] = std::string("gcc ") + __VERSION__;
#else
    info["compiler"] = "unknown";
#endif
    info["nproc"] = std::to_string(std::thread::hardware_concurrency());
    return info;
}

} // namespace perfbench
