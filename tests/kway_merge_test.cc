#include "merge/kway_merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/run_sink.h"
#include "exec/async_io.h"
#include "io/mem_env.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace twrs {
namespace {

// Writes `keys` (ascending) as a plain forward run file.
RunInfo MakeForwardRun(Env* env, const std::string& path,
                       const std::vector<Key>& keys) {
  EXPECT_TRUE(WriteAllRecords(env, path, keys).ok());
  RunInfo run;
  RunSegment seg;
  seg.path = path;
  seg.count = keys.size();
  run.length = keys.size();
  if (!keys.empty()) {
    run.min_key = keys.front();
    run.max_key = keys.back();
  }
  run.segments.push_back(std::move(seg));
  return run;
}

// Writes a multi-segment 2WRS-style run through FileRunSink.
RunInfo MakeFourStreamRun(Env* env, const std::string& prefix) {
  FileRunSinkOptions options;
  options.reverse.pages_per_file = 2;
  options.reverse.page_bytes = 64;
  FileRunSink sink(env, "d", prefix, options);
  EXPECT_TRUE(sink.BeginRun().ok());
  EXPECT_TRUE(testing::AppendKeys(&sink, kStream4, {15, 10, 5}).ok());
  EXPECT_TRUE(testing::AppendKeys(&sink, kStream3, {20, 25}).ok());
  EXPECT_TRUE(testing::AppendKeys(&sink, kStream2, {40, 35}).ok());
  EXPECT_TRUE(testing::AppendKeys(&sink, kStream1, {50, 60}).ok());
  EXPECT_TRUE(sink.EndRun().ok());
  EXPECT_TRUE(sink.Finish().ok());
  return sink.runs()[0];
}

// Merges initialized `cursors` through Merge into the record file
// "merged", serving `window`.
Status MergeCursorsToFile(Env* env, std::vector<RunCursor>* cursors,
                          const MergeWindow& window, RunInfo* out) {
  std::unique_ptr<RecordWriter> writer;
  TWRS_RETURN_IF_ERROR(OpenRecordWriter(env, "merged", MergeOutputRange(),
                                        256, nullptr, nullptr, false,
                                        &writer));
  return Merge(cursors, window, MergeIoOptions(), writer.get(), out);
}

std::vector<Key> MergeAll(Env* env, const std::vector<RunInfo>& runs) {
  std::vector<RunCursor> cursors;
  for (const RunInfo& run : runs) {
    cursors.emplace_back(env, run, 256);
    EXPECT_TRUE(cursors.back().Init().ok());
  }
  Status s = MergeCursorsToFile(env, &cursors, MergeWindow(), nullptr);
  EXPECT_TRUE(s.ok()) << s.ToString();
  std::vector<Key> out;
  EXPECT_TRUE(ReadAllRecords(env, "merged", &out).ok());
  return out;
}

TEST(RunCursorTest, IteratesMultiSegmentRun) {
  MemEnv env;
  RunInfo run = MakeFourStreamRun(&env, "r");
  RunCursor cursor(&env, run);
  ASSERT_TWRS_OK(cursor.Init());
  std::vector<Key> keys;
  while (cursor.valid()) {
    keys.push_back(cursor.key());
    ASSERT_TWRS_OK(cursor.Next());
  }
  EXPECT_EQ(keys, std::vector<Key>({5, 10, 15, 20, 25, 35, 40, 50, 60}));
}

TEST(RunCursorTest, EmptyRunIsImmediatelyInvalid) {
  MemEnv env;
  RunInfo run;
  RunCursor cursor(&env, run);
  ASSERT_TWRS_OK(cursor.Init());
  EXPECT_FALSE(cursor.valid());
}

TEST(KWayMergeTest, MergesPlainRuns) {
  MemEnv env;
  std::vector<RunInfo> runs;
  runs.push_back(MakeForwardRun(&env, "a", {2, 8, 12, 16}));
  runs.push_back(MakeForwardRun(&env, "b", {3, 13, 14, 17}));
  runs.push_back(MakeForwardRun(&env, "c", {1, 7, 9, 18}));
  EXPECT_EQ(MergeAll(&env, runs),
            std::vector<Key>({1, 2, 3, 7, 8, 9, 12, 13, 14, 16, 17, 18}));
}

TEST(KWayMergeTest, MergesMixedSegmentKinds) {
  MemEnv env;
  std::vector<RunInfo> runs;
  runs.push_back(MakeFourStreamRun(&env, "r"));  // 5..60
  runs.push_back(MakeForwardRun(&env, "f", {1, 22, 70}));
  std::vector<Key> merged = MergeAll(&env, runs);
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end()));
  EXPECT_EQ(merged.size(), 12u);
  EXPECT_EQ(merged.front(), 1);
  EXPECT_EQ(merged.back(), 70);
}

TEST(KWayMergeTest, ZeroRunsYieldEmptyOutput) {
  MemEnv env;
  EXPECT_TRUE(MergeAll(&env, {}).empty());
}

TEST(KWayMergeTest, MergeProducesRunInfo) {
  MemEnv env;
  std::vector<RunCursor> cursors;
  cursors.emplace_back(&env, MakeForwardRun(&env, "a", {1, 3}), 256);
  cursors.emplace_back(&env, MakeForwardRun(&env, "b", {2}), 256);
  for (RunCursor& cursor : cursors) ASSERT_TWRS_OK(cursor.Init());
  RunInfo out;
  ASSERT_TWRS_OK(MergeCursorsToFile(&env, &cursors, MergeWindow(), &out));
  EXPECT_EQ(out.length, 3u);
  EXPECT_EQ(out.min_key, 1);
  EXPECT_EQ(out.max_key, 3);
  std::vector<Key> keys;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "merged", &keys));
  EXPECT_EQ(keys, std::vector<Key>({1, 2, 3}));
}

TEST(KWayMergeTest, RemoveRunFilesDeletesAllSegments) {
  MemEnv env;
  RunInfo run = MakeFourStreamRun(&env, "r");
  ASSERT_GT(env.FileCount(), 0u);
  ASSERT_TWRS_OK(RemoveRunFiles(&env, run));
  EXPECT_EQ(env.FileCount(), 0u);
}

// Writes the ascending `keys` as a 2WRS-style run whose four streams split
// them into consecutive quarters, so the run alternates reverse (Appendix-A)
// and forward segments.
RunInfo MakeMixedRun(Env* env, const std::string& prefix,
                     const std::vector<Key>& keys) {
  FileRunSinkOptions options;
  options.reverse.pages_per_file = 2;
  options.reverse.page_bytes = 64;
  FileRunSink sink(env, "d", prefix, options);
  EXPECT_TRUE(sink.BeginRun().ok());
  const size_t q1 = keys.size() / 4;
  const size_t q2 = keys.size() / 2;
  const size_t q3 = 3 * keys.size() / 4;
  std::vector<Key> s4(keys.begin(), keys.begin() + q1);
  const std::vector<Key> s3(keys.begin() + q1, keys.begin() + q2);
  std::vector<Key> s2(keys.begin() + q2, keys.begin() + q3);
  const std::vector<Key> s1(keys.begin() + q3, keys.end());
  std::reverse(s4.begin(), s4.end());  // the decreasing streams
  std::reverse(s2.begin(), s2.end());
  EXPECT_TRUE(testing::AppendKeys(&sink, kStream4, s4).ok());
  EXPECT_TRUE(testing::AppendKeys(&sink, kStream3, s3).ok());
  EXPECT_TRUE(testing::AppendKeys(&sink, kStream2, s2).ok());
  EXPECT_TRUE(testing::AppendKeys(&sink, kStream1, s1).ok());
  EXPECT_TRUE(sink.EndRun().ok());
  EXPECT_TRUE(sink.Finish().ok());
  return sink.runs()[0];
}

// The one Merge against std::sort then slicing: every fan-in from 1 to 20,
// forward and mixed forward/reverse runs, random InitSlice slices and a
// random MergeWindow.
TEST(KWayMergeTest, RandomizedManyRunsProperty) {
  Random rng(23);
  for (size_t k = 1; k <= 20; ++k) {
    for (int trial = 0; trial < 4; ++trial) {
      MemEnv env;
      std::vector<RunCursor> cursors;
      std::vector<Key> all;
      for (size_t w = 0; w < k; ++w) {
        std::vector<Key> keys(rng.Uniform(100));
        for (Key& key : keys) key = static_cast<Key>(rng.Uniform(10000));
        std::sort(keys.begin(), keys.end());
        const std::string name = "run" + std::to_string(w);
        // (FileRunSink drops empty runs, so those are written forward.)
        RunInfo run = keys.empty() || rng.Uniform(2) == 0
                          ? MakeForwardRun(&env, name, keys)
                          : MakeMixedRun(&env, name, keys);
        // Trial 0 merges whole runs; the others merge a random slice.
        uint64_t skip = 0;
        uint64_t limit = keys.size();
        if (trial > 0) {
          skip = rng.Uniform(keys.size() + 1);
          limit = rng.Uniform(keys.size() - skip + 1);
        }
        all.insert(all.end(), keys.begin() + static_cast<ptrdiff_t>(skip),
                   keys.begin() + static_cast<ptrdiff_t>(skip + limit));
        cursors.emplace_back(&env, std::move(run), 256);
        ASSERT_TWRS_OK(cursors.back().InitSlice(skip, limit));
      }
      std::sort(all.begin(), all.end());
      MergeWindow window;
      if (trial > 1) {
        window.skip = rng.Uniform(all.size() + 2);
        if (trial > 2) window.limit = rng.Uniform(all.size() + 2);
      }
      const size_t begin = std::min<uint64_t>(window.skip, all.size());
      const size_t end = std::min<uint64_t>(all.size() - begin, window.limit) +
                         begin;
      const std::vector<Key> expect(all.begin() + static_cast<ptrdiff_t>(begin),
                                    all.begin() + static_cast<ptrdiff_t>(end));

      RunInfo out;
      ASSERT_TWRS_OK(MergeCursorsToFile(&env, &cursors, window, &out));
      std::vector<Key> got;
      ASSERT_TWRS_OK(ReadAllRecords(&env, "merged", &got));
      EXPECT_EQ(got, expect) << "k=" << k << " trial=" << trial;
      EXPECT_EQ(out.length, expect.size());
      if (!expect.empty()) {
        EXPECT_EQ(out.min_key, expect.front());
        EXPECT_EQ(out.max_key, expect.back());
      }
    }
  }
}

}  // namespace
}  // namespace twrs
