/**
 * @file
 * Tests for the offline embedding-access trace module (Section IX's
 * trace-driven methodology): recording, serialization round-trip, and the
 * cache-study statistics (access counts, working sets, top-row coverage).
 */
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "model/generators.h"
#include "workload/access_trace.h"

namespace {

using namespace dri;
using workload::AccessTrace;

model::ModelSpec
smallSpec()
{
    model::ModelSpec spec;
    spec.name = "t";
    spec.mean_items = 10.0;
    spec.items_min = 4.0;
    spec.items_max = 40.0;
    spec.nets = {{0, "n", 1.0, 0.0}};
    for (int i = 0; i < 3; ++i) {
        model::TableSpec t;
        t.id = i;
        t.name = "t" + std::to_string(i);
        t.rows = 100000;
        t.dim = 8;
        t.pooling_per_item = 2.0;
        spec.tables.push_back(t);
    }
    return spec;
}

workload::AccessTrace
makeTrace(const model::ModelSpec &spec, std::size_t n_requests,
          double skew = 0.9)
{
    workload::RequestGenerator gen(spec,
                                   workload::GeneratorConfig{21, 0.0});
    return workload::recordTrace(spec, gen.generate(n_requests), skew, 5);
}

TEST(AccessTrace, RecordsMatchRequestLookups)
{
    const auto spec = smallSpec();
    workload::RequestGenerator gen(spec,
                                   workload::GeneratorConfig{21, 0.0});
    const auto requests = gen.generate(20);
    const auto trace = workload::recordTrace(spec, requests, 0.9, 5);

    std::int64_t expected = 0;
    for (const auto &r : requests)
        expected += r.totalLookups();
    EXPECT_EQ(static_cast<std::int64_t>(trace.size()), expected);

    const auto counts = trace.accessCounts(spec.tables.size());
    std::int64_t sum = 0;
    for (auto c : counts)
        sum += c;
    EXPECT_EQ(sum, expected);
}

TEST(AccessTrace, RowsWithinTableBounds)
{
    const auto spec = smallSpec();
    const auto trace = makeTrace(spec, 30);
    for (const auto &r : trace.records()) {
        EXPECT_GE(r.row, 0);
        EXPECT_LT(r.row,
                  spec.tables[static_cast<std::size_t>(r.table_id)].rows);
    }
}

TEST(AccessTrace, SerializationRoundTrip)
{
    const auto spec = smallSpec();
    const auto trace = makeTrace(spec, 10);
    std::stringstream buffer;
    trace.write(buffer);

    AccessTrace back;
    ASSERT_TRUE(AccessTrace::read(buffer, &back));
    ASSERT_EQ(back.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(back.records()[i].request_id,
                  trace.records()[i].request_id);
        EXPECT_EQ(back.records()[i].table_id, trace.records()[i].table_id);
        EXPECT_EQ(back.records()[i].row, trace.records()[i].row);
    }
}

TEST(AccessTrace, ReadRejectsGarbage)
{
    std::stringstream bad("1 2 not-a-number\n");
    AccessTrace out;
    EXPECT_FALSE(AccessTrace::read(bad, &out));
}

TEST(AccessTrace, WorkingSetCurveConcaveUnderSkew)
{
    const auto spec = smallSpec();
    const auto trace = makeTrace(spec, 400, 0.95);
    const auto curve = trace.workingSetCurve(0, 100);
    ASSERT_GE(curve.size(), 4u);
    // Monotone non-decreasing...
    for (std::size_t i = 1; i < curve.size(); ++i)
        EXPECT_GE(curve[i], curve[i - 1]);
    // ...and concave: later increments smaller than early ones (popular
    // rows repeat), the property frequency-based caching exploits.
    const auto early = curve[1] - curve[0];
    const auto late = curve[curve.size() - 1] - curve[curve.size() - 2];
    EXPECT_LE(late, early);
}

TEST(AccessTrace, ForEachAccessGeneratesTheRecordedStream)
{
    const auto spec = smallSpec();
    workload::RequestGenerator gen(spec,
                                   workload::GeneratorConfig{21, 0.0});
    const auto requests = gen.generate(25);
    const auto trace = workload::recordTrace(spec, requests, 0.9, 5);

    // Twice: the stream is a pure function of its arguments.
    for (int pass = 0; pass < 2; ++pass) {
        std::size_t i = 0;
        workload::forEachAccess(
            spec, requests, 0.9, 5, [&](const workload::AccessRecord &rec) {
                ASSERT_LT(i, trace.size());
                const auto &want = trace.records()[i++];
                EXPECT_EQ(rec.request_id, want.request_id);
                EXPECT_EQ(rec.table_id, want.table_id);
                EXPECT_EQ(rec.row, want.row);
            });
        EXPECT_EQ(i, trace.size()) << "pass " << pass;
    }
}

TEST(AccessTrace, FootprintAccumulatorCountsEachRowOnce)
{
    const auto spec = smallSpec();
    workload::FootprintAccumulator acc(spec);
    const std::int64_t row_bytes = spec.tables[1].storedRowBytes();
    EXPECT_EQ(acc.add({0, 1, 42}), row_bytes);
    EXPECT_EQ(acc.add({1, 1, 42}), 0);         // repeat
    EXPECT_EQ(acc.add({2, 2, 42}), row_bytes); // same row, other table
    EXPECT_EQ(acc.add({3, 7, 1}), 0);          // table outside the spec
    EXPECT_EQ(acc.add({4, -1, 1}), 0);
    EXPECT_EQ(acc.footprint().distinct_rows, 2);
    EXPECT_EQ(acc.footprint().universe_bytes, 2 * row_bytes);

    const auto trace = makeTrace(spec, 40);
    std::set<std::pair<int, std::int64_t>> distinct;
    for (const auto &r : trace.records())
        distinct.insert({r.table_id, r.row});
    const auto fp = workload::traceFootprint(spec, trace);
    EXPECT_EQ(fp.distinct_rows, static_cast<std::int64_t>(distinct.size()));
    EXPECT_EQ(fp.universe_bytes, fp.distinct_rows * row_bytes);
}

// Bad input is rejected by exceptions, not assert()s, so these hold in
// the Release build as well.

TEST(AccessTrace, WorkingSetCurveRejectsZeroStride)
{
    const auto spec = smallSpec();
    const auto trace = makeTrace(spec, 5);
    EXPECT_THROW(trace.workingSetCurve(0, 0), std::invalid_argument);
}

TEST(AccessTrace, ReadRejectsNullOutput)
{
    std::stringstream in("1 0 5\n");
    EXPECT_THROW(AccessTrace::read(in, nullptr), std::invalid_argument);
}

TEST(AccessTrace, MixedTraceRejectsTableOutsideSpec)
{
    const auto spec = smallSpec();
    workload::MixedTraceConfig config;
    config.accesses = 10;
    for (const int table : {-1, 3, 1000}) {
        config.table_id = table;
        EXPECT_THROW(workload::synthesizeMixedTrace(spec, config),
                     std::invalid_argument)
            << "table " << table;
    }
    config.table_id = 2;
    EXPECT_EQ(workload::synthesizeMixedTrace(spec, config).size(), 10u);
}

TEST(AccessTrace, RecordRejectsRequestsShapedForAnotherSpec)
{
    const auto spec = smallSpec();
    workload::RequestGenerator gen(spec,
                                   workload::GeneratorConfig{21, 0.0});
    auto requests = gen.generate(2);
    requests[1].table_lookups.pop_back();
    EXPECT_THROW(workload::recordTrace(spec, requests, 0.9, 5),
                 std::invalid_argument);
}

TEST(AccessTrace, TopRowCoverageGrowsWithSkew)
{
    const auto spec = smallSpec();
    const auto flat = makeTrace(spec, 300, 0.1);
    const auto skewed = makeTrace(spec, 300, 1.1);
    const double flat_cov = flat.topRowCoverage(0, 64);
    const double skew_cov = skewed.topRowCoverage(0, 64);
    EXPECT_GT(skew_cov, flat_cov);
    EXPECT_GT(skew_cov, 0.3); // a small hot set captures real mass
    EXPECT_DOUBLE_EQ(flat.topRowCoverage(99, 10), 0.0); // unknown table
}

} // namespace
