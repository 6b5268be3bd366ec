#include "helpers.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace perfbench {
namespace {

ips::TraceSpan Span(const char* name, ips::SpanId parent, int64_t start,
                    int64_t end) {
  return ips::TraceSpan{name, parent, start, end};
}

TEST(SummarizeTest, EmptySampleIsAllZero) {
  const Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p99, 0.0);
  EXPECT_FALSE(s.p99_supported);
}

TEST(SummarizeTest, NearestRankPercentilesWithSampleCount) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted input
  const Summary s = Summarize(samples);
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.p50, 51.0);
  EXPECT_EQ(s.p90, 91.0);
  EXPECT_EQ(s.p99, 100.0);
  // Fewer than 1000 samples: the p99 has fewer than ten samples beyond it.
  EXPECT_FALSE(s.p99_supported);
}

TEST(SummarizeTest, P99SupportedFromAThousandSamples) {
  std::vector<double> samples(1000, 1.0);
  samples[999] = 5.0;
  const Summary s = Summarize(samples);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_TRUE(s.p99_supported);
  EXPECT_EQ(s.p99, 1.0);  // rank 990 of 1000
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
}

TEST(SelfTimeTest, LeafSpanIsItsWholeDuration) {
  const auto self = SelfTimesByName({Span("kv.load", ips::kNoSpan, 10, 40)});
  EXPECT_EQ(self.at("kv.load"), 30);
}

TEST(SelfTimeTest, SubtractsTheUnionOfChildrenClippedToTheParent) {
  const std::vector<ips::TraceSpan> spans = {
      Span("server.query", ips::kNoSpan, 0, 100),
      // Two children that overlap (parallel workers): covered once.
      Span("cache.lookup", 0, 10, 30),
      Span("kv.load", 0, 20, 50),
      // A child running past its parent's end counts only up to it.
      Span("feature.compute", 0, 90, 120),
  };
  const auto self = SelfTimesByName(spans);
  EXPECT_EQ(self.at("server.query"), 100 - (50 - 10) - (100 - 90));
  EXPECT_EQ(self.at("cache.lookup"), 20);
  EXPECT_EQ(self.at("kv.load"), 30);
  EXPECT_EQ(self.at("feature.compute"), 30);
}

TEST(SelfTimeTest, GrandchildrenDoNotReduceTheRoot) {
  const std::vector<ips::TraceSpan> spans = {
      Span("client.multi_query", ips::kNoSpan, 0, 100),
      Span("rpc.transfer", 0, 10, 90),
      Span("server.query", 1, 20, 80),
  };
  const auto self = SelfTimesByName(spans);
  EXPECT_EQ(self.at("client.multi_query"), 20);
  EXPECT_EQ(self.at("rpc.transfer"), 20);
  EXPECT_EQ(self.at("server.query"), 60);
}

TEST(SelfTimeTest, SumsRepeatedStagesAndSkipsOpenSpans) {
  const std::vector<ips::TraceSpan> spans = {
      Span("rpc.dispatch", ips::kNoSpan, 0, 5),
      Span("rpc.dispatch", ips::kNoSpan, 50, 57),
      Span("server.queue", ips::kNoSpan, 60, 0),  // still open
  };
  const auto self = SelfTimesByName(spans);
  EXPECT_EQ(self.at("rpc.dispatch"), 12);
  EXPECT_EQ(self.count("server.queue"), 0u);
}

TEST(CounterSnapshotTest, DeltaBetweenSnapshots) {
  CounterSnapshot before(std::map<std::string, int64_t>{{"cache.hit", 10}});
  CounterSnapshot after(
      std::map<std::string, int64_t>{{"cache.hit", 25}, {"cache.miss", 4}});
  after.Set("kv.multi_get_calls", 3);
  EXPECT_EQ(before.Delta(after, "cache.hit"), 15);
  // A counter first created inside the window started from zero.
  EXPECT_EQ(before.Delta(after, "cache.miss"), 4);
  EXPECT_EQ(before.Delta(after, "kv.multi_get_calls"), 3);
  EXPECT_EQ(before.Delta(after, "never.seen"), 0);
}

TEST(RatioTest, ZeroDenominatorReadsAsZero) {
  EXPECT_EQ(Ratio(3, 0), 0.0);
  EXPECT_EQ(Ratio(3, 4), 0.75);
}

}  // namespace
}  // namespace perfbench
