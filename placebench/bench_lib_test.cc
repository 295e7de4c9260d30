// Tests of the benchmark's own helpers: the tail percentile, the fastest-
// segment throughput, span self time and the epoch-watch bookkeeping.
//
//   cmake -S placebench -B .bench_build/placebench
//   cmake --build .bench_build/placebench --target placebench_lib_test
//   .bench_build/placebench/placebench_lib_test

#include "placebench/bench_lib.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace medea::placebench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {  // unsorted on purpose
    v.push_back(i);
  }
  return v;
}

TEST(TailTest, LeavesExactlyTenSamplesBeyond) {
  const TailStat tail = TailOf(OneTo(100));
  EXPECT_TRUE(tail.defined);
  EXPECT_EQ(tail.samples, 100u);
  EXPECT_DOUBLE_EQ(tail.value, 90.0);  // 91..100 lie beyond it
  EXPECT_DOUBLE_EQ(tail.percentile, 90.0);
}

TEST(TailTest, PercentileGrowsWithSampleCount) {
  const TailStat tail = TailOf(OneTo(1000));
  EXPECT_DOUBLE_EQ(tail.value, 990.0);
  EXPECT_DOUBLE_EQ(tail.percentile, 99.0);
  const TailStat smallest = TailOf(OneTo(20));
  EXPECT_TRUE(smallest.defined);
  EXPECT_DOUBLE_EQ(smallest.value, 10.0);
  EXPECT_DOUBLE_EQ(smallest.percentile, 50.0);
}

TEST(TailTest, TooFewSamplesFallsBackToTheMaximum) {
  const TailStat tail = TailOf(OneTo(19));
  EXPECT_FALSE(tail.defined);
  EXPECT_DOUBLE_EQ(tail.value, 19.0);
  EXPECT_DOUBLE_EQ(tail.percentile, 100.0);
  EXPECT_EQ(TailOf({}).samples, 0u);
}

TEST(TailTest, MissingSamplesSortLast) {
  std::vector<double> v = OneTo(30);
  v.push_back(std::numeric_limits<double>::infinity());
  const TailStat tail = TailOf(v);
  EXPECT_DOUBLE_EQ(tail.value, 21.0);  // 22..30 and the missing one beyond
  EXPECT_DOUBLE_EQ(NearestRank(v, 50.0), 16.0);
  EXPECT_DOUBLE_EQ(NearestRank(OneTo(4), 50.0), 2.0);
}

TEST(FastestSegmentRateTest, TakesEachSegmentFromItsFastestRun) {
  // Two runs of 300 units in segments of 100: run a stalls in its second
  // segment, run b in its third.
  const std::vector<std::pair<double, double>> a = {{0, 0}, {10, 100}, {110, 200}, {120, 300}};
  const std::vector<std::pair<double, double>> b = {{0, 0}, {20, 100}, {30, 200}, {130, 300}};
  // Fastest segments: 10 (a), 10 (b), 10 (a) ms for 300 units.
  EXPECT_DOUBLE_EQ(FastestSegmentRate({a, b}, 100.0), 300.0 * 1000.0 / 30.0);
  EXPECT_DOUBLE_EQ(FastestSegmentRate({a}, 100.0), 300.0 * 1000.0 / 120.0);
}

TEST(FastestSegmentRateTest, CountsOnlySegmentsEveryRunCompleted) {
  // The shorter run b limits the segment count to two.
  const std::vector<std::pair<double, double>> a = {{0, 0}, {40, 200}, {50, 300}};
  const std::vector<std::pair<double, double>> b = {{0, 0}, {10, 100}, {30, 250}};
  // a crosses 100 and 200 at 20 and 40 ms; b at 10 and 10 + 20 * 100/150.
  const double b_second = 20.0 * 100.0 / 150.0;
  EXPECT_NEAR(FastestSegmentRate({a, b}, 100.0), 200.0 * 1000.0 / (10.0 + b_second), 1e-9);
  EXPECT_DOUBLE_EQ(FastestSegmentRate({{{0, 0}, {50, 10}}}, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(FastestSegmentRate({}, 100.0), 0.0);
}

TEST(FastestSegmentRateTest, InterpolatesBoundariesInsideAnInterval) {
  // One point crossing three boundaries gives each segment its share of
  // the interval: no segment takes 0 ms.
  EXPECT_DOUBLE_EQ(FastestSegmentRate({{{0, 0}, {30, 300}}}, 100.0), 300.0 * 1000.0 / 30.0);
  // A point past a boundary does not move work into the next segment: a
  // crosses 100 at 10 ms, not at its 15 ms point, so its segments are 10
  // and 10 ms. Taking the split at the points (15 and 5 ms) would let a
  // second run b with segments of 10 and 15 ms contribute 10 + 5.
  const std::vector<std::pair<double, double>> a = {{0, 0}, {15, 150}, {20, 200}};
  const std::vector<std::pair<double, double>> b = {{0, 0}, {10, 100}, {25, 200}};
  EXPECT_DOUBLE_EQ(FastestSegmentRate({a, b}, 100.0), 200.0 * 1000.0 / 20.0);
}

obs::TraceEvent Span(const char* name, const char* category, uint32_t tid, int64_t start,
                     int64_t duration) {
  obs::TraceEvent e;
  e.name = name;
  e.category = category;
  e.tid = tid;
  e.start_us = start;
  e.duration_us = duration;
  return e;
}

TEST(SelfTimeTest, SubtractsDirectChildrenOnly) {
  // parent [0,1000) > child [100,400) > grandchild [200,300); child2 [500,600).
  const std::vector<obs::TraceEvent> spans = {
      Span("grandchild", "solver", 1, 200, 100), Span("parent", "service", 1, 0, 1000),
      Span("child2", "sched", 1, 500, 100), Span("child", "sched", 1, 100, 300)};
  const auto by_name = SelfTimesByName(spans);
  EXPECT_DOUBLE_EQ(by_name.at("parent").busy_ms, 1.0);
  EXPECT_DOUBLE_EQ(by_name.at("parent").self_ms, 0.6);
  EXPECT_DOUBLE_EQ(by_name.at("child").self_ms, 0.2);
  EXPECT_DOUBLE_EQ(by_name.at("grandchild").self_ms, 0.1);
  EXPECT_DOUBLE_EQ(by_name.at("child2").self_ms, 0.1);
  const auto by_category = SelfTimesByCategory(spans);
  EXPECT_EQ(by_category.at("sched").count, 2);
  EXPECT_DOUBLE_EQ(by_category.at("sched").self_ms, 0.3);
  // Self times add up to the root's wall time.
  double total = 0.0;
  for (const auto& [name, t] : by_name) {
    total += t.self_ms;
  }
  EXPECT_DOUBLE_EQ(total, 1.0);
}

TEST(SelfTimeTest, ThreadsDoNotNestAcrossEachOther) {
  const std::vector<obs::TraceEvent> spans = {Span("a", "x", 1, 0, 1000),
                                              Span("b", "x", 2, 100, 300)};
  const auto by_name = SelfTimesByName(spans);
  EXPECT_DOUBLE_EQ(by_name.at("a").self_ms, 1.0);
  EXPECT_DOUBLE_EQ(by_name.at("b").self_ms, 0.3);
}

TEST(SelfTimeTest, ClipsAChildThatOutlivesItsParent) {
  // Microsecond rounding can push a child's end past its parent's.
  const std::vector<obs::TraceEvent> spans = {Span("parent", "x", 1, 0, 100),
                                              Span("child", "x", 1, 40, 61)};
  const auto by_name = SelfTimesByName(spans);
  EXPECT_DOUBLE_EQ(by_name.at("parent").self_ms, 0.04);
  EXPECT_DOUBLE_EQ(by_name.at("child").self_ms, 0.061);
}

TEST(EpochWatchTest, LatencyRunsToTheFirstEpochHoldingTheApp) {
  EpochWatch watch;
  watch.OnSubmit(1, 10.0);
  watch.OnSubmit(2, 12.0);
  watch.OnSubmit(3, 13.0);
  // Epoch observed at t=20 holds app 2 only.
  EXPECT_EQ(watch.OnEpoch(20.0, [](uint32_t app) { return app == 2; }), 1u);
  // Later epochs still hold app 2; it must not be counted again.
  EXPECT_EQ(watch.OnEpoch(25.0, [](uint32_t app) { return app <= 2; }), 1u);
  EXPECT_EQ(watch.placed(), 2u);
  EXPECT_EQ(watch.missing(), 1u);
  const std::vector<double> latencies = watch.LatenciesWithMissing();
  ASSERT_EQ(latencies.size(), 3u);
  EXPECT_DOUBLE_EQ(latencies[0], 8.0);   // app 2: 20 - 12
  EXPECT_DOUBLE_EQ(latencies[1], 15.0);  // app 1: 25 - 10
  EXPECT_TRUE(std::isinf(latencies[2]));  // app 3 never showed up
}

TEST(EpochWatchTest, RejectedAppsCountAsMissingInThePercentiles) {
  EpochWatch watch;
  for (uint32_t app = 1; app <= 4; ++app) {
    watch.OnSubmit(app, 0.0);
  }
  watch.OnEpoch(5.0, [](uint32_t app) { return app == 1; });
  // Apps 2-4 are rejected: they never appear, so the median is missing.
  EXPECT_EQ(watch.submitted(), 4u);
  EXPECT_EQ(watch.missing_apps(), (std::vector<uint32_t>{2, 3, 4}));
  EXPECT_TRUE(std::isinf(watch.P50Ms()));
  EXPECT_EQ(watch.placed_apps(), std::vector<uint32_t>{1});
  watch.OnEpoch(7.0, [](uint32_t app) { return app == 2; });
  EXPECT_DOUBLE_EQ(watch.P50Ms(), 7.0);
  EXPECT_FALSE(watch.TailMs().defined);
}

}  // namespace
}  // namespace medea::placebench
