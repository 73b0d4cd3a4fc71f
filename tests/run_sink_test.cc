#include "core/run_sink.h"

#include <gtest/gtest.h>

#include "io/mem_env.h"
#include "merge/kway_merge.h"
#include "tests/test_util.h"

namespace twrs {
namespace {

using testing::AppendKeys;

TEST(CountingRunSinkTest, CountsLengthsAndBounds) {
  CountingRunSink sink;
  ASSERT_TWRS_OK(sink.BeginRun());
  ASSERT_TWRS_OK(AppendKeys(&sink, kStream1, {5}));
  ASSERT_TWRS_OK(AppendKeys(&sink, kStream4, {1}));
  ASSERT_TWRS_OK(AppendKeys(&sink, kStream1, {9}));
  ASSERT_TWRS_OK(sink.EndRun());
  ASSERT_TWRS_OK(sink.BeginRun());
  ASSERT_TWRS_OK(AppendKeys(&sink, kStream1, {2}));
  ASSERT_TWRS_OK(sink.EndRun());
  ASSERT_TWRS_OK(sink.Finish());
  ASSERT_EQ(sink.runs().size(), 2u);
  EXPECT_EQ(sink.runs()[0].length, 3u);
  EXPECT_EQ(sink.runs()[0].min_key, 1);
  EXPECT_EQ(sink.runs()[0].max_key, 9);
  EXPECT_EQ(sink.runs()[1].length, 1u);
}

TEST(CountingRunSinkTest, EmptyRunsAreDropped) {
  CountingRunSink sink;
  ASSERT_TWRS_OK(sink.BeginRun());
  ASSERT_TWRS_OK(sink.EndRun());
  EXPECT_TRUE(sink.runs().empty());
}

TEST(CountingRunSinkTest, ProtocolViolationsAreRejected) {
  CountingRunSink sink;
  EXPECT_FALSE(AppendKeys(&sink, kStream1, {1}).ok());  // outside a run
  EXPECT_FALSE(sink.EndRun().ok());
  ASSERT_TWRS_OK(sink.BeginRun());
  EXPECT_FALSE(sink.BeginRun().ok());  // nested
}

TEST(CollectingRunSinkTest, AssemblesStreamsInAscendingOrder) {
  CollectingRunSink sink;
  ASSERT_TWRS_OK(sink.BeginRun());
  // Stream contents mirror Fig 4.9's layout: s4 decreasing low keys, s3
  // ascending, s2 decreasing, s1 ascending high keys.
  ASSERT_TWRS_OK(AppendKeys(&sink, kStream4, {38, 37}));
  ASSERT_TWRS_OK(AppendKeys(&sink, kStream3, {39}));
  ASSERT_TWRS_OK(AppendKeys(&sink, kStream3, {40}));
  ASSERT_TWRS_OK(AppendKeys(&sink, kStream2, {51, 50}));
  ASSERT_TWRS_OK(AppendKeys(&sink, kStream1, {52, 53}));
  ASSERT_TWRS_OK(sink.EndRun());
  ASSERT_TWRS_OK(sink.Finish());
  ASSERT_EQ(sink.collected().size(), 1u);
  EXPECT_EQ(sink.collected()[0],
            std::vector<Key>({37, 38, 39, 40, 50, 51, 52, 53}));
  EXPECT_EQ(sink.runs()[0].min_key, 37);
  EXPECT_EQ(sink.runs()[0].max_key, 53);
}

TEST(CollectingRunSinkTest, RejectsStreamOrderViolations) {
  CollectingRunSink sink;
  ASSERT_TWRS_OK(sink.BeginRun());
  ASSERT_TWRS_OK(AppendKeys(&sink, kStream1, {10}));
  EXPECT_FALSE(AppendKeys(&sink, kStream1, {9}).ok());  // stream 1 ascends
  EXPECT_FALSE(AppendKeys(&sink, kStream1, {20, 15}).ok());  // in a batch too
  ASSERT_TWRS_OK(AppendKeys(&sink, kStream4, {5}));
  EXPECT_FALSE(AppendKeys(&sink, kStream4, {6}).ok());  // stream 4 descends
}

TEST(FileRunSinkTest, WritesSegmentsReadableAsOneAscendingRun) {
  MemEnv env;
  FileRunSinkOptions options;
  options.reverse.pages_per_file = 2;
  options.reverse.page_bytes = 64;
  FileRunSink sink(&env, "dir", "t", options);
  ASSERT_TWRS_OK(sink.BeginRun());
  ASSERT_TWRS_OK(AppendKeys(&sink, kStream4, {30, 20}));
  ASSERT_TWRS_OK(AppendKeys(&sink, kStream4, {10}));
  ASSERT_TWRS_OK(AppendKeys(&sink, kStream3, {40, 45}));
  ASSERT_TWRS_OK(AppendKeys(&sink, kStream2, {70, 60}));
  ASSERT_TWRS_OK(AppendKeys(&sink, kStream1, {80}));
  ASSERT_TWRS_OK(AppendKeys(&sink, kStream1, {}));  // empty batches are no-ops
  ASSERT_TWRS_OK(AppendKeys(&sink, kStream1, {90}));
  ASSERT_TWRS_OK(sink.EndRun());
  ASSERT_TWRS_OK(sink.Finish());

  ASSERT_EQ(sink.runs().size(), 1u);
  const RunInfo& run = sink.runs()[0];
  EXPECT_EQ(run.length, 9u);
  EXPECT_EQ(run.min_key, 10);
  EXPECT_EQ(run.max_key, 90);
  ASSERT_EQ(run.segments.size(), 4u);
  // Ascending read order 4, 3, 2, 1; reverse flags on 4 and 2.
  EXPECT_TRUE(run.segments[0].reverse);
  EXPECT_FALSE(run.segments[1].reverse);
  EXPECT_TRUE(run.segments[2].reverse);
  EXPECT_FALSE(run.segments[3].reverse);

  RunCursor cursor(&env, run);
  ASSERT_TWRS_OK(cursor.Init());
  std::vector<Key> keys;
  while (cursor.valid()) {
    keys.push_back(cursor.key());
    ASSERT_TWRS_OK(cursor.Next());
  }
  EXPECT_EQ(keys, std::vector<Key>({10, 20, 30, 40, 45, 60, 70, 80, 90}));
}

TEST(FileRunSinkTest, UnusedStreamsProduceNoSegments) {
  MemEnv env;
  FileRunSink sink(&env, "dir", "t");
  ASSERT_TWRS_OK(sink.BeginRun());
  ASSERT_TWRS_OK(AppendKeys(&sink, kStream1, {1}));
  ASSERT_TWRS_OK(sink.EndRun());
  ASSERT_TWRS_OK(sink.Finish());
  ASSERT_EQ(sink.runs().size(), 1u);
  EXPECT_EQ(sink.runs()[0].segments.size(), 1u);
  EXPECT_FALSE(sink.runs()[0].segments[0].reverse);
}

TEST(FileRunSinkTest, MultipleRunsGetDistinctFiles) {
  MemEnv env;
  FileRunSink sink(&env, "dir", "t");
  for (int r = 0; r < 3; ++r) {
    ASSERT_TWRS_OK(sink.BeginRun());
    ASSERT_TWRS_OK(AppendKeys(&sink, kStream1, {r}));
    ASSERT_TWRS_OK(sink.EndRun());
  }
  ASSERT_TWRS_OK(sink.Finish());
  ASSERT_EQ(sink.runs().size(), 3u);
  EXPECT_NE(sink.runs()[0].segments[0].path, sink.runs()[1].segments[0].path);
  EXPECT_NE(sink.runs()[1].segments[0].path, sink.runs()[2].segments[0].path);
}

}  // namespace
}  // namespace twrs
