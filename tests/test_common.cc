/**
 * @file
 * Unit tests for the common substrate: integer math and hashing,
 * deterministic RNG, the statistics package (histograms and the
 * Figure-7-style occupancy tracker), and the circular FIFO.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/circular_fifo.hh"
#include "common/intmath.hh"
#include "common/random.hh"
#include "common/stats.hh"

namespace
{

using namespace srl;

// ---------------------------------------------------------------- intmath

TEST(IntMath, PowerOfTwoPredicates)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2((1ull << 40) + 1));
}

TEST(IntMath, Logs)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(IntMath, Alignment)
{
    EXPECT_EQ(alignDown(0x1234, 0x100), 0x1200u);
    EXPECT_EQ(alignUp(0x1234, 0x100), 0x1300u);
    EXPECT_EQ(alignUp(0x1200, 0x100), 0x1200u);
}

TEST(IntMath, BitsAndMask)
{
    EXPECT_EQ(bits(0xdeadbeef, 8, 8), 0xbeu);
    EXPECT_EQ(bits(~0ull, 0, 64), ~0ull);
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(8), 0xffu);
    EXPECT_EQ(mask(64), ~0ull);
}

TEST(IntMath, LabIndexTakesLowBits)
{
    // 8-bit index above a 3-bit (word) shift.
    EXPECT_EQ(labIndex(0x0, 8, 3), 0u);
    EXPECT_EQ(labIndex(0x8, 8, 3), 1u); // next word
    EXPECT_EQ(labIndex(0x8 << 8, 8, 3), 0u); // beyond the field
}

TEST(IntMath, PaxIndexMixesThreePieces)
{
    // Changing only the *upper* piece must change the 3-PAX index but
    // not the LAB index.
    const std::uint64_t a = 0x10;
    const std::uint64_t b = a | (0x3ull << (3 + 16)); // upper field bits
    EXPECT_EQ(labIndex(a, 8, 3), labIndex(b, 8, 3));
    EXPECT_NE(paxIndex(a, 8, 3), paxIndex(b, 8, 3));
}

// ---------------------------------------------------------------- random

TEST(Random, DeterministicAcrossInstances)
{
    Random a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next32(), b.next32());
}

TEST(Random, SeedsDiverge)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next32() == b.next32();
    EXPECT_LT(same, 5);
}

TEST(Random, BelowIsInRange)
{
    Random r(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(r.below(17), 17u);
}

TEST(Random, RangeIsInclusive)
{
    Random r(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.range(5, 8);
        ASSERT_GE(v, 5u);
        ASSERT_LE(v, 8u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Random, ChanceExtremes)
{
    Random r(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Random, RealInUnitInterval)
{
    Random r(11);
    for (int i = 0; i < 10000; ++i) {
        const double v = r.real();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
    }
}

// ---------------------------------------------------------------- stats

TEST(Stats, ScalarBasics)
{
    stats::Scalar s;
    EXPECT_EQ(s.value(), 0u);
    ++s;
    s += 4;
    EXPECT_EQ(s.value(), 5u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(Stats, AverageBasics)
{
    stats::Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(2);
    a.sample(4);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_EQ(a.count(), 2u);
}

TEST(Stats, HistogramBuckets)
{
    stats::Histogram h({10, 20, 30});
    h.sample(5);   // <=10
    h.sample(10);  // <=10
    h.sample(15);  // <=20
    h.sample(35);  // overflow
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.counts()[0], 2u);
    EXPECT_EQ(h.counts()[1], 1u);
    EXPECT_EQ(h.counts()[2], 0u);
    EXPECT_EQ(h.counts()[3], 1u);
    EXPECT_DOUBLE_EQ(h.fractionAbove(10), 0.5);
}

TEST(Stats, OccupancyPercentAbove)
{
    stats::Occupancy o;
    o.observe(0, 50);   // empty half the time
    o.observe(10, 25);
    o.observe(100, 25);
    EXPECT_EQ(o.totalCycles(), 100u);
    EXPECT_EQ(o.occupiedCycles(), 50u);
    EXPECT_DOUBLE_EQ(o.percentOccupied(), 50.0);
    EXPECT_DOUBLE_EQ(o.percentAbove(0), 100.0);
    EXPECT_DOUBLE_EQ(o.percentAbove(10), 50.0);
    EXPECT_DOUBLE_EQ(o.percentAbove(100), 0.0);
    EXPECT_EQ(o.peak(), 100u);
}

TEST(Stats, StatGroupSnapshotAndFormat)
{
    stats::Scalar s;
    s += 7;
    stats::Average a;
    a.sample(1.5);
    double v = 2.25;

    stats::StatGroup g("grp");
    g.registerScalar("s", &s, "a scalar");
    g.registerAverage("a", &a, "an average");
    g.registerValue("v", &v, "a value");

    const auto rows = g.snapshot();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_DOUBLE_EQ(rows[0].value, 7.0);
    EXPECT_DOUBLE_EQ(rows[1].value, 1.5);
    EXPECT_DOUBLE_EQ(rows[2].value, 2.25);
    EXPECT_NE(g.format().find("grp"), std::string::npos);
    EXPECT_NE(g.format().find("a scalar"), std::string::npos);
}

// ----------------------------------------------------- stats report/json

stats::StatsReport
sampleReport()
{
    stats::StatsReport rep;
    rep.meta["seed"] = "42";
    rep.meta["suite"] = "SFP2K";

    stats::RunRecord a;
    a.name = "baseline";
    a.meta["config"] = "baseline-48stq";
    a.set("ipc", 1.2060107576159581);
    a.set("cycles", 41459);
    a.set("tiny", 4.9e-324); // denormal min: hardest round-trip case
    a.set("negative", -0.1);
    rep.runs.push_back(a);

    stats::RunRecord b;
    b.name = "weird \"name\"\nwith\\escapes";
    b.meta["note"] = "tab\there";
    b.error = "run exploded";
    rep.runs.push_back(b);
    return rep;
}

TEST(StatsReport, JsonRoundTripIsExact)
{
    const stats::StatsReport rep = sampleReport();
    const std::string json = rep.toJson();
    const stats::StatsReport back = stats::StatsReport::fromJson(json);

    // Byte-identical re-serialization is the determinism contract the
    // CI diff step relies on.
    EXPECT_EQ(back.toJson(), json);

    EXPECT_EQ(back.meta.at("seed"), "42");
    ASSERT_EQ(back.runs.size(), 2u);
    EXPECT_EQ(back.runs[0].name, "baseline");
    EXPECT_DOUBLE_EQ(back.runs[0].metric("ipc"), 1.2060107576159581);
    EXPECT_EQ(back.runs[0].metric("tiny"), 4.9e-324);
    EXPECT_EQ(back.runs[1].name, "weird \"name\"\nwith\\escapes");
    EXPECT_EQ(back.runs[1].meta.at("note"), "tab\there");
    EXPECT_TRUE(back.runs[1].failed());
    EXPECT_EQ(back.runs[1].error, "run exploded");
}

TEST(StatsReport, EmptyReportRoundTrips)
{
    stats::StatsReport rep;
    const auto back = stats::StatsReport::fromJson(rep.toJson());
    EXPECT_TRUE(back.meta.empty());
    EXPECT_TRUE(back.runs.empty());
    EXPECT_EQ(back.toJson(), rep.toJson());
}

TEST(StatsReport, MetricOrderSurvivesRoundTrip)
{
    stats::StatsReport rep;
    stats::RunRecord r;
    r.name = "run";
    r.set("zulu", 1);
    r.set("alpha", 2);
    r.set("mike", 3);
    rep.runs.push_back(r);
    const auto back = stats::StatsReport::fromJson(rep.toJson());
    ASSERT_EQ(back.runs[0].metrics.size(), 3u);
    EXPECT_EQ(back.runs[0].metrics[0].first, "zulu");
    EXPECT_EQ(back.runs[0].metrics[1].first, "alpha");
    EXPECT_EQ(back.runs[0].metrics[2].first, "mike");
}

TEST(StatsReport, FromJsonRejectsGarbage)
{
    EXPECT_THROW(stats::StatsReport::fromJson(""), stats::ParseError);
    EXPECT_THROW(stats::StatsReport::fromJson("[]"), stats::ParseError);
    EXPECT_THROW(stats::StatsReport::fromJson("{\"runs\": []}"),
                 stats::ParseError); // missing schema marker
    EXPECT_THROW(stats::StatsReport::fromJson(
                     "{\"schema\": \"other-v9\", \"runs\": []}"),
                 stats::ParseError);
    const std::string good = sampleReport().toJson();
    EXPECT_THROW(
        stats::StatsReport::fromJson(good.substr(0, good.size() / 2)),
        stats::ParseError);
    EXPECT_THROW(stats::StatsReport::fromJson(good + "x"),
                 stats::ParseError);
}

// tests/data/srlsim-stats-v1.json was written by toJson and is
// committed, so a change to the stats format (on either side) shows up
// here as a diff against a file, not only as a self-consistent round
// trip.
TEST(StatsReport, CommittedFixtureRoundTripsByteForByte)
{
    std::ifstream in(SRLSIM_TEST_DATA_DIR "/srlsim-stats-v1.json",
                     std::ios::binary);
    ASSERT_TRUE(in) << "missing fixture";
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string fixture = buf.str();

    const stats::StatsReport rep = stats::StatsReport::fromJson(fixture);
    EXPECT_EQ(rep.toJson(), fixture);

    EXPECT_EQ(rep.meta.at("note"),
              "quote \" backslash \\ newline \n tab \t ctl \x01 "
              "caf\xc3\xa9");
    ASSERT_EQ(rep.runs.size(), 2u);
    EXPECT_TRUE(std::isnan(rep.runs[0].metric("undefined_ratio")));
    EXPECT_EQ(rep.runs[0].metric("overflow"), HUGE_VAL);
    EXPECT_EQ(rep.runs[0].metric("underflow"), -HUGE_VAL);
    EXPECT_EQ(rep.runs[0].metric("tiny"), 4.9e-324);
    EXPECT_EQ(rep.runs[0].meta.at("run_seed"), "9129838320742759465");
    EXPECT_EQ(rep.runs[1].error, "run exploded:\nstack\tdump");
}

TEST(StatsReport, CsvHasUnionHeaderAndStableCells)
{
    stats::StatsReport rep;
    stats::RunRecord a;
    a.name = "a";
    a.meta["suite"] = "WS";
    a.set("ipc", 1.5);
    rep.runs.push_back(a);
    stats::RunRecord b;
    b.name = "b,with comma";
    b.set("ipc", 2.0);
    b.set("extra", 7);
    rep.runs.push_back(b);

    const std::string csv = rep.toCsv();
    EXPECT_EQ(csv, "name,error,suite,ipc,extra\n"
                   "a,,WS,1.5,\n"
                   "\"b,with comma\",,,2,7\n");
}

TEST(StatsReport, RunRecordMetricAccessors)
{
    stats::RunRecord r;
    r.name = "r";
    r.set("x", 1.0);
    r.set("x", 2.0); // overwrite, not append
    ASSERT_EQ(r.metrics.size(), 1u);
    EXPECT_DOUBLE_EQ(r.metric("x"), 2.0);
    EXPECT_TRUE(r.hasMetric("x"));
    EXPECT_FALSE(r.hasMetric("y"));
    EXPECT_THROW(r.metric("y"), std::out_of_range);
}

TEST(StatsReport, FormatDoubleRoundTripsExactly)
{
    for (const double v :
         {0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 1.2060107576159581,
          4.9e-324, 1.7976931348623157e308, -2.5e-10}) {
        const std::string s = stats::formatDouble(v);
        EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    }
    EXPECT_EQ(stats::formatDouble(0.5), "0.5"); // shortest form wins
}

// ---------------------------------------------------------------- fifo

TEST(CircularFifo, PushPopOrder)
{
    CircularFifo<int> f(4);
    EXPECT_TRUE(f.empty());
    f.push(1);
    f.push(2);
    f.push(3);
    EXPECT_EQ(f.size(), 3u);
    EXPECT_EQ(f.pop(), 1);
    EXPECT_EQ(f.pop(), 2);
    f.push(4);
    f.push(5);
    f.push(6);
    EXPECT_TRUE(f.full());
    EXPECT_EQ(f.pop(), 3);
    EXPECT_EQ(f.pop(), 4);
    EXPECT_EQ(f.pop(), 5);
    EXPECT_EQ(f.pop(), 6);
    EXPECT_TRUE(f.empty());
}

TEST(CircularFifo, SlotLiveness)
{
    CircularFifo<int> f(4);
    const auto s0 = f.push(10);
    const auto s1 = f.push(11);
    EXPECT_TRUE(f.isLive(s0));
    EXPECT_TRUE(f.isLive(s1));
    EXPECT_FALSE(f.isLive(2));
    f.pop();
    EXPECT_FALSE(f.isLive(s0));
    EXPECT_EQ(f.at(s1), 11);
    EXPECT_EQ(f.logicalIndex(s1), 0u);
}

TEST(CircularFifo, WrapAroundSlots)
{
    CircularFifo<int> f(3);
    f.push(1);
    f.push(2);
    f.pop();
    f.pop();
    const auto s = f.push(3); // wraps within ring
    EXPECT_EQ(s, 2u);
    const auto s2 = f.push(4);
    EXPECT_EQ(s2, 0u);
    EXPECT_TRUE(f.isLive(s));
    EXPECT_TRUE(f.isLive(s2));
    EXPECT_FALSE(f.isLive(1));
}

TEST(CircularFifo, ForEachInOrder)
{
    CircularFifo<int> f(3);
    f.push(1);
    f.push(2);
    f.pop();
    f.push(3);
    f.push(4);
    std::vector<int> seen;
    f.forEach([&](int v) { seen.push_back(v); });
    EXPECT_EQ(seen, (std::vector<int>{2, 3, 4}));
}

} // namespace
