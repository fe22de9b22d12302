// Unit tests for the benchmark's statistics and trace helpers.
#include <gtest/gtest.h>

#include <vector>

#include "stats.h"
#include "trace.h"

namespace pipebench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(Percentile(OneTo(100), 90), 90.0);
  EXPECT_EQ(Percentile(OneTo(100), 50), 50.0);
  EXPECT_EQ(Percentile(OneTo(200), 90), 180.0);
}

TEST(Percentile, RefusesWithFewerThanTenSamplesBeyond) {
  // 99 samples: rank 90 leaves only 9 beyond the 90th percentile.
  EXPECT_FALSE(Percentile(OneTo(99), 90).has_value());
  EXPECT_TRUE(Percentile(OneTo(100), 90).has_value());
  // The rule holds for the median too: 19 samples leave 9 beyond rank 10.
  EXPECT_FALSE(Percentile(OneTo(19), 50).has_value());
  EXPECT_EQ(Percentile(OneTo(20), 50), 10.0);
  EXPECT_FALSE(Percentile({}, 50).has_value());
  EXPECT_FALSE(Percentile(OneTo(1000), 100).has_value());
}

TEST(CaseCount, NeverBelowWhatTheNinetiethPercentileNeeds) {
  EXPECT_EQ(CaseCount(1, 8.0), 100u);
  EXPECT_EQ(CaseCount(30, 8.0), 240u);
  EXPECT_TRUE(Percentile(OneTo(static_cast<int>(CaseCount(1, 1.0))), 90));
}

TEST(CaseCount, WholeCyclesOfInputs) {
  EXPECT_EQ(CaseCount(1, 8.0, 30), 120u);
  EXPECT_EQ(CaseCount(25, 12.0, 7), 301u);
  EXPECT_EQ(CaseCount(25, 12.0, 0), 300u);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(Ratio, ZeroBaseHasNoValue) {
  Ratio zero{0, 0};
  EXPECT_FALSE(zero.value().has_value());
  EXPECT_EQ(zero.ValueOr(-1.0), -1.0);
  EXPECT_EQ(zero.ToString(), "n/a (0/0)");
  Ratio half{1, 2};
  EXPECT_EQ(half.value(), 0.5);
  EXPECT_EQ(half.ToString(), "0.5 (1/2)");
}

Span MakeSpan(int64_t id, int64_t parent, double start, double end) {
  Span s;
  s.name = "s" + std::to_string(id);
  s.id = id;
  s.parent = parent;
  s.start_us = start;
  s.end_us = end;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfDirectChildren) {
  // root [0,100) with children [10,40) and [30,60) (overlapping) and a
  // grandchild [15,20) under the first child.
  std::vector<Span> spans = {MakeSpan(0, -1, 0, 100), MakeSpan(1, 0, 10, 40),
                             MakeSpan(2, 0, 30, 60), MakeSpan(3, 1, 15, 20)};
  std::vector<double> self = SelfTimesMs(spans);
  ASSERT_EQ(self.size(), 4u);
  EXPECT_DOUBLE_EQ(self[0], 0.050);  // 100 - |[10,60)|
  EXPECT_DOUBLE_EQ(self[1], 0.025);  // 30 - 5
  EXPECT_DOUBLE_EQ(self[2], 0.030);
  EXPECT_DOUBLE_EQ(self[3], 0.005);
}

TEST(SelfTime, ChildrenOutsideTheParentAreClipped) {
  std::vector<Span> spans = {MakeSpan(0, -1, 10, 20), MakeSpan(1, 0, 0, 15)};
  EXPECT_DOUBLE_EQ(SelfTimesMs(spans)[0], 0.005);
}

TEST(Recorder, NestsSpansAndGroupsThemByCase) {
  Recorder rec(true);
  rec.SetCase(7);
  {
    ScopedSpan outer(&rec, "case");
    ScopedSpan inner(&rec, "layer");
  }
  rec.SetCase(8);
  { ScopedSpan again(&rec, "layer"); }
  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[2].parent, -1);
  auto by_case = rec.SelfMsByCase();
  EXPECT_EQ(by_case["layer"].size(), 2u);
  EXPECT_EQ(by_case["case"].count(7), 1u);
  EXPECT_EQ(rec.Summary()["layer"].count, 2u);
  EXPECT_NE(rec.ToChromeJson().find("\"ph\":\"X\""), std::string::npos);
}

TEST(Recorder, DisabledRecordsNothing) {
  Recorder rec(false);
  { ScopedSpan span(&rec, "layer"); }
  EXPECT_TRUE(rec.spans().empty());
}

}  // namespace
}  // namespace pipebench
