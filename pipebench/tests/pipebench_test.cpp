/**
 * @file
 * Unit tests for the pipeline benchmark's own arithmetic: tail
 * percentile selection, latency medians over passes, span self time,
 * and metric-name validity.
 */
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "metrics.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace pipebench {
namespace {

std::vector<double>
oneTo(size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

TEST(TailPercentileTest, PicksP99OnlyWithTenSamplesBeyond)
{
    const Tail at_1000 = tailPercentile(oneTo(1000));
    EXPECT_EQ(at_1000.percentile, 99.0);
    EXPECT_TRUE(at_1000.qualified);
    EXPECT_EQ(at_1000.count, 1000u);
    // 999 samples leave only 9.99 beyond p99: fall back to p95.
    EXPECT_EQ(tailPercentile(oneTo(999)).percentile, 95.0);
}

TEST(TailPercentileTest, WalksTheLadder)
{
    EXPECT_EQ(tailPercentile(oneTo(10000)).percentile, 99.9);
    EXPECT_EQ(tailPercentile(oneTo(9999)).percentile, 99.0);
    EXPECT_EQ(tailPercentile(oneTo(200)).percentile, 95.0);
    EXPECT_EQ(tailPercentile(oneTo(199)).percentile, 90.0);
    EXPECT_EQ(tailPercentile(oneTo(100)).percentile, 90.0);
    EXPECT_EQ(tailPercentile(oneTo(40)).percentile, 75.0);
    EXPECT_EQ(tailPercentile(oneTo(20)).percentile, 50.0);
}

TEST(TailPercentileTest, TooFewSamplesReportTheMedianUnqualified)
{
    const Tail tail = tailPercentile(oneTo(19));
    EXPECT_FALSE(tail.qualified);
    EXPECT_EQ(tail.percentile, 50.0);
    EXPECT_DOUBLE_EQ(tail.value, 10.0);
    EXPECT_EQ(tail.count, 19u);
    EXPECT_EQ(tailPercentile({}).value, 0.0);
}

TEST(TailPercentileTest, ValueInterpolatesBetweenRanks)
{
    // 1..1000: p99 sits between the 990th and 991st samples.
    EXPECT_NEAR(tailPercentile(oneTo(1000)).value, 990.01, 1e-9);
}

Span
span(const char* layer, u64 start_ms, u64 end_ms, i64 parent)
{
    Span s;
    s.layer = layer;
    s.start_ns = start_ms * 1'000'000;
    s.end_ns = end_ms * 1'000'000;
    s.parent = parent;
    return s;
}

TEST(SpanTest, SelfTimeSubtractsDirectChildrenOnly)
{
    // cell [0,100) > engine [0,10), algo [10,80) > nested [20,30),
    // oracle [80,95): the cell's self time is 100-10-70-15 = 5 ms and
    // the algo's is 70-10 = 60 ms.
    const std::vector<Span> spans = {
        span("harness.cell", 0, 100, -1), span("simt.engine", 0, 10, 0),
        span("algos.cc", 10, 80, 0),      span("inner", 20, 30, 2),
        span("chaos.oracle", 80, 95, 0),
    };
    const auto self = selfSeconds(spans);
    EXPECT_NEAR(self.at("harness.cell"), 0.005, 1e-12);
    EXPECT_NEAR(self.at("algos.cc"), 0.060, 1e-12);
    EXPECT_NEAR(self.at("inner"), 0.010, 1e-12);
    EXPECT_NEAR(self.at("simt.engine"), 0.010, 1e-12);
    const auto total = totalSeconds(spans);
    EXPECT_NEAR(total.at("harness.cell"), 0.100, 1e-12);
    EXPECT_NEAR(total.at("algos.cc"), 0.070, 1e-12);
}

TEST(SpanTest, SelfTimeSumsOverSpansOfOneLayer)
{
    const std::vector<Span> spans = {
        span("algos.cc", 0, 30, -1),
        span("algos.cc", 40, 50, -1),
        span("chaos.oracle", 20, 30, 0),
    };
    EXPECT_NEAR(selfSeconds(spans).at("algos.cc"), 0.030, 1e-12);
    EXPECT_NEAR(longestSeconds(spans, "algos.cc"), 0.030, 1e-12);
    EXPECT_EQ(spanCount(spans, "algos.cc"), 2u);
}

TEST(SpanTest, SliceRebasesParents)
{
    const std::vector<Span> spans = {
        span("setup", 0, 5, -1),
        span("harness.cell", 10, 20, -1),
        span("algos.cc", 11, 19, 1),
    };
    const auto slice = sliceSpans(spans, 1);
    ASSERT_EQ(slice.size(), 2u);
    EXPECT_EQ(slice[0].parent, -1);
    EXPECT_EQ(slice[1].parent, 0);
    EXPECT_NEAR(selfSeconds(slice).at("harness.cell"), 0.002, 1e-12);
}

TEST(SpanTest, RecorderNestsSpansPerThread)
{
    SpanRecorder recorder;
    {
        ScopedSpan outer(&recorder, "harness.cell");
        ScopedSpan inner(&recorder, "algos.cc");
    }
    ScopedSpan next(&recorder, "harness.report");
    const auto spans = recorder.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].parent, -1);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[2].parent, -1);
    EXPECT_GT(spans[1].end_ns, 0u);
    EXPECT_EQ(spans[2].end_ns, 0u);  // still open
}

TEST(MetricNameTest, AcceptsTheBenchmarkAlphabet)
{
    for (const char* name :
         {"setup_s", "p99_ms", "simt.l1_hit_rate", "algos.cc.host_s",
          "fidelity.mis.geomean_err", "a-b", "9lives"})
        EXPECT_TRUE(validMetricName(name)) << name;
}

TEST(MetricNameTest, RejectsEverythingElse)
{
    for (const char* name : {"", ".hidden", "_x", "-x", "has space",
                             "p99/ms", "quote\"", "naïve"})
        EXPECT_FALSE(validMetricName(name)) << name;
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
}

TEST(MetricSetTest, RejectsInvalidNamesAndNonFiniteValues)
{
    MetricSet metrics;
    EXPECT_THROW(metrics.set("bad name", 1.0, "s"), std::invalid_argument);
    EXPECT_THROW(metrics.set("wall_s", 1.0 / 0.0, "s"),
                 std::invalid_argument);
    metrics.set("wall_s", 1.0, "s");
    metrics.set("wall_s", 2.0, "s");
    ASSERT_EQ(metrics.all().size(), 1u);
    EXPECT_EQ(metrics.find("wall_s")->value, 2.0);
}

TEST(MetricSetTest, MedianOfPassesIsPerMetric)
{
    std::vector<MetricSet> passes(3);
    const double walls[] = {3.0, 1.0, 2.0};
    for (size_t i = 0; i < passes.size(); ++i) {
        passes[i].set("wall_s", walls[i], "s");
        passes[i].set("simt.launches", 7.0, "count", true);
    }
    const MetricSet median = medianOf(passes);
    EXPECT_EQ(median.find("wall_s")->value, 2.0);
    EXPECT_EQ(median.find("simt.launches")->value, 7.0);
    EXPECT_TRUE(median.find("simt.launches")->exact);
}

TEST(ReportLatencyTest, TakesTheMedianOverPassesOfEachPassesPercentiles)
{
    std::vector<std::vector<double>> passes;
    for (double scale : {3.0, 1.0, 2.0}) {
        passes.push_back(oneTo(40));
        for (double& v : passes.back())
            v *= scale;
    }
    RunResult result;
    reportLatency(result, passes);
    const Tail one = tailPercentile(oneTo(40));
    EXPECT_DOUBLE_EQ(result.metrics.find("p50_ms")->value, 2.0 * 20.5);
    EXPECT_DOUBLE_EQ(result.metrics.find("p99_ms")->value, 2.0 * one.value);
    EXPECT_EQ(result.details["p99_ms.percentile"], "75");
    EXPECT_EQ(result.details["p99_ms.samples"], "40");
    EXPECT_EQ(result.details["p99_ms.qualified"], "true");
}

TEST(ReportLatencyTest, OneSampleSetIsReportedAsIs)
{
    RunResult result;
    reportLatency(result, {oneTo(19)});
    EXPECT_DOUBLE_EQ(result.metrics.find("p50_ms")->value, 10.0);
    EXPECT_DOUBLE_EQ(result.metrics.find("p99_ms")->value, 10.0);
    EXPECT_EQ(result.details["p99_ms.qualified"], "false");
    EXPECT_EQ(result.details.count("p50_ms.passes"), 0u);
}

TEST(JsonTest, NumbersRoundTripAndStringsEscape)
{
    EXPECT_EQ(jsonNumber(0.1), "0.1");
    EXPECT_EQ(std::stod(jsonNumber(1.0 / 3.0)), 1.0 / 3.0);
    EXPECT_EQ(jsonString("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
}

}  // namespace
}  // namespace pipebench
