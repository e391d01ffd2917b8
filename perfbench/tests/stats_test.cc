#include "stats.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace qmqo {
namespace perfbench {
namespace {

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  const std::vector<double> values = {40, 10, 30, 20, 50};
  EXPECT_DOUBLE_EQ(Percentile(values, 0), 10);
  EXPECT_DOUBLE_EQ(Percentile(values, 50), 30);
  EXPECT_DOUBLE_EQ(Percentile(values, 90), 46);
  EXPECT_DOUBLE_EQ(Percentile(values, 100), 50);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4}, 50), 2.5);
}

TEST(PercentileTest, HandlesDegenerateInputs) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0);
  EXPECT_DOUBLE_EQ(Percentile({7}, 90), 7);
  EXPECT_DOUBLE_EQ(Percentile({1, 2}, 150), 2);
  EXPECT_DOUBLE_EQ(Percentile({1, 2}, -5), 1);
}

// Builds root(10 ms) -> {a(3 ms) -> {c(1 ms)}, b(4 ms)}.
obs::SolveTrace MakeTrace(double root_ms, double a_ms, double b_ms) {
  obs::SolveTrace trace;
  trace.Open("root");
  trace.Open("a");
  trace.Open("c");
  trace.Close(1.0);
  trace.Close(a_ms);
  trace.Open("b");
  trace.Close(b_ms);
  trace.Close(root_ms);
  return trace;
}

TEST(SelfWallTest, SubtractsOnlyDirectChildren) {
  const obs::SolveTrace trace = MakeTrace(10.0, 3.0, 4.0);
  EXPECT_DOUBLE_EQ(SelfWallMs(trace, 0), 3.0);  // 10 - (3 + 4)
  EXPECT_DOUBLE_EQ(SelfWallMs(trace, 1), 2.0);  // 3 - 1
  EXPECT_DOUBLE_EQ(SelfWallMs(trace, 2), 1.0);  // leaf
  EXPECT_DOUBLE_EQ(SelfWallMs(trace, 3), 4.0);  // leaf
}

TEST(SelfWallTest, NeverNegativeWhenChildrenOverrunTheParent) {
  const obs::SolveTrace trace = MakeTrace(5.0, 3.0, 4.0);
  EXPECT_DOUBLE_EQ(SelfWallMs(trace, 0), 0.0);
}

TEST(TraceOverheadTest, IsTheTracedSlowdownInPercent) {
  EXPECT_DOUBLE_EQ(TraceOverheadPct(100.0, 95.0), 5.0);
  EXPECT_DOUBLE_EQ(TraceOverheadPct(100.0, 110.0), -10.0);
  EXPECT_DOUBLE_EQ(TraceOverheadPct(0.0, 5.0), 0.0);
}

SettleEvent Event(double end_ms, double cpu_ms, std::vector<double> latency) {
  SettleEvent event;
  event.end_ms = end_ms;
  event.cpu_ms = cpu_ms;
  event.ok = static_cast<int>(latency.size());
  event.latency_ms = std::move(latency);
  return event;
}

TEST(TimeBlocksTest, TakesTheBestQuartileOverBlocks) {
  // Two requests per event; the 400 ms event is slow. With five 100 ms
  // windows the 100 and 200 ms events each make a fast block, and the last
  // block takes the slow event together with the 500 ms one.
  const std::vector<SettleEvent> events = {
      Event(100, 10, {50, 100}),  Event(200, 20, {50, 100}),
      Event(400, 60, {150, 200}), Event(500, 70, {50, 100})};
  const LoopTimings timings = TimeBlocks(events, 5);
  EXPECT_DOUBLE_EQ(timings.throughput_per_s, 20.0);   // 2 per 100 ms
  EXPECT_DOUBLE_EQ(timings.latency_p50_ms, 75.0);
  EXPECT_DOUBLE_EQ(timings.latency_p90_ms, 95.0);
  EXPECT_DOUBLE_EQ(timings.cpu_ms_per_request, 5.0);  // 10 ms / 2
}

TEST(TimeBlocksTest, LastBlockTakesTheRemainder) {
  const std::vector<SettleEvent> events = {Event(10, 1, {10}),
                                           Event(20, 2, {10}),
                                           Event(30, 3, {10})};
  const LoopTimings one = TimeBlocks(events, 1);
  EXPECT_DOUBLE_EQ(one.throughput_per_s, 100.0);  // 3 in 30 ms
  EXPECT_DOUBLE_EQ(one.cpu_ms_per_request, 1.0);
  const LoopTimings none = TimeBlocks({}, 4);
  EXPECT_DOUBLE_EQ(none.throughput_per_s, 0.0);
}

TEST(AnswerDigestTest, DependsOnRecordsAndTheirBoundaries) {
  AnswerDigest ab_c, a_bc, ab_c_again;
  ab_c.Add("ab");
  ab_c.Add("c");
  a_bc.Add("a");
  a_bc.Add("bc");
  ab_c_again.Add("ab");
  ab_c_again.Add("c");
  EXPECT_EQ(ab_c.Hex(), ab_c_again.Hex());
  EXPECT_NE(ab_c.Hex(), a_bc.Hex());
  EXPECT_EQ(ab_c.Hex().size(), 16u);
}

}  // namespace
}  // namespace perfbench
}  // namespace qmqo
