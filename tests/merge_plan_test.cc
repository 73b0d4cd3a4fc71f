#include "merge/merge_plan.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "io/mem_env.h"
#include "io/record_io.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace twrs {
namespace {

RunInfo MakeRun(Env* env, const std::string& path,
                const std::vector<Key>& keys) {
  EXPECT_TRUE(WriteAllRecords(env, path, keys).ok());
  RunInfo run;
  RunSegment seg;
  seg.path = path;
  seg.count = keys.size();
  run.segments.push_back(std::move(seg));
  run.length = keys.size();
  return run;
}

MergeOptions Options() {
  MergeOptions options;
  options.fan_in = 3;
  options.io.block_bytes = 256;
  options.temp_dir = "tmp";
  return options;
}

TEST(MergeRunsTest, EmptyInputWritesEmptyOutput) {
  MemEnv env;
  MergeStats stats;
  ASSERT_TWRS_OK(MergeRuns(&env, {}, Options(), "out", &stats));
  std::vector<Key> keys;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &keys));
  EXPECT_TRUE(keys.empty());
  EXPECT_EQ(stats.merge_steps, 0u);
}

TEST(MergeRunsTest, SingleRunIsCopiedToOutput) {
  MemEnv env;
  std::vector<RunInfo> runs = {MakeRun(&env, "r0", {1, 2, 3})};
  MergeStats stats;
  ASSERT_TWRS_OK(MergeRuns(&env, runs, Options(), "out", &stats));
  std::vector<Key> keys;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &keys));
  EXPECT_EQ(keys, std::vector<Key>({1, 2, 3}));
  EXPECT_EQ(stats.merge_steps, 1u);
  EXPECT_FALSE(env.FileExists("r0"));  // inputs consumed
}

TEST(MergeRunsTest, MultiPassMergeIsCorrect) {
  MemEnv env;
  Random rng(3);
  std::vector<RunInfo> runs;
  std::vector<Key> all;
  for (int r = 0; r < 10; ++r) {  // 10 runs, fan-in 3 -> multiple passes
    std::vector<Key> keys(50);
    for (Key& k : keys) k = static_cast<Key>(rng.Uniform(100000));
    std::sort(keys.begin(), keys.end());
    all.insert(all.end(), keys.begin(), keys.end());
    runs.push_back(MakeRun(&env, "r" + std::to_string(r), keys));
  }
  std::sort(all.begin(), all.end());
  MergeStats stats;
  ASSERT_TWRS_OK(MergeRuns(&env, runs, Options(), "out", &stats));
  std::vector<Key> keys;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &keys));
  EXPECT_EQ(keys, all);
  EXPECT_GT(stats.merge_steps, 1u);
  EXPECT_GT(stats.intermediate_runs, 0u);
  // All temp files were cleaned up: only the output remains.
  EXPECT_EQ(env.FileCount(), 1u);
}

TEST(MergeRunsTest, KeepInputsWhenRequested) {
  MemEnv env;
  std::vector<RunInfo> runs = {MakeRun(&env, "r0", {1}),
                               MakeRun(&env, "r1", {2})};
  MergeOptions options = Options();
  options.remove_inputs = false;
  ASSERT_TWRS_OK(MergeRuns(&env, runs, options, "out", nullptr));
  EXPECT_TRUE(env.FileExists("r0"));
  EXPECT_TRUE(env.FileExists("r1"));
}

TEST(MergeRunsTest, RejectsFanInBelowTwo) {
  MemEnv env;
  MergeOptions options = Options();
  options.fan_in = 1;
  EXPECT_TRUE(MergeRuns(&env, {}, options, "out", nullptr)
                  .IsInvalidArgument());
}

TEST(MergeRunsTest, RecordsWrittenCountsMergeVolume) {
  MemEnv env;
  std::vector<RunInfo> runs;
  for (int r = 0; r < 4; ++r) {
    runs.push_back(MakeRun(&env, "r" + std::to_string(r), {r}));
  }
  MergeOptions options = Options();  // fan_in = 3
  MergeStats stats;
  ASSERT_TWRS_OK(MergeRuns(&env, runs, options, "out", &stats));
  // Pass 1 merges 3 records, the final merge writes all 4.
  EXPECT_EQ(stats.records_written, 3u + 4u);
}

TEST(MergeRunsTest, HigherFanInNeedsFewerSteps) {
  for (size_t fan_in : {2u, 4u, 16u}) {
    MemEnv env;
    std::vector<RunInfo> runs;
    for (int r = 0; r < 16; ++r) {
      runs.push_back(MakeRun(&env, "r" + std::to_string(r),
                             {static_cast<Key>(r)}));
    }
    MergeOptions options = Options();
    options.fan_in = fan_in;
    MergeStats stats;
    ASSERT_TWRS_OK(MergeRuns(&env, runs, options, "out", &stats));
    if (fan_in == 2) {
      EXPECT_EQ(stats.merge_steps, 15u);
    }
    if (fan_in == 16) {
      EXPECT_EQ(stats.merge_steps, 1u);
    }
    std::vector<Key> keys;
    ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &keys));
    EXPECT_EQ(keys.size(), 16u);
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  }
}

}  // namespace
}  // namespace twrs
