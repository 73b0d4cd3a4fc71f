#include "merge/polyphase.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "io/mem_env.h"
#include "io/record_io.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace twrs {
namespace {

TEST(SimulatePolyphaseTest, ReproducesTable21Exactly) {
  // Table 2.1 of the paper: 6 tapes starting at {8, 10, 3, 0, 8, 11}.
  auto trace = SimulatePolyphase({8, 10, 3, 0, 8, 11});
  const std::vector<std::vector<uint64_t>> expected = {
      {8, 10, 3, 0, 8, 11},  // step 0
      {5, 7, 0, 3, 5, 8},    // step 1
      {2, 4, 3, 0, 2, 5},    // step 2
      {0, 2, 1, 2, 0, 3},    // step 3
      {1, 1, 0, 1, 0, 2},    // step 4
      {0, 0, 1, 0, 0, 1},    // step 5
      {1, 0, 0, 0, 0, 0},    // step 6
  };
  EXPECT_EQ(trace, expected);
}

TEST(SimulatePolyphaseTest, SingleRunIsAlreadyDone) {
  auto trace = SimulatePolyphase({1, 0, 0});
  EXPECT_EQ(trace.size(), 1u);
}

TEST(SimulatePolyphaseTest, AllRunsOnOneTape) {
  auto trace = SimulatePolyphase({5, 0, 0});
  // Degenerate: all runs merge at once into the empty tape.
  EXPECT_EQ(trace.back(), std::vector<uint64_t>({0, 5 * 0 + 1, 0}));
  uint64_t total = std::accumulate(trace.back().begin(), trace.back().end(),
                                   uint64_t{0});
  EXPECT_EQ(total, 1u);
}

TEST(SimulatePolyphaseTest, PerfectFibonacciDistribution) {
  // {13, 8, 0} is a Fibonacci distribution for 3 tapes: the classic ideal.
  auto trace = SimulatePolyphase({13, 8, 0});
  uint64_t total = std::accumulate(trace.back().begin(), trace.back().end(),
                                   uint64_t{0});
  EXPECT_EQ(total, 1u);
  // Every intermediate state keeps exactly one empty tape until the end.
  for (size_t i = 0; i + 1 < trace.size(); ++i) {
    EXPECT_EQ(std::count(trace[i].begin(), trace[i].end(), 0u), 1);
  }
}

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

TEST(PolyphaseMergeRunsTest, ProducesSortedOutput) {
  MemEnv env;
  Random rng(9);
  std::vector<RunInfo> runs;
  std::vector<Key> all;
  for (int r = 0; r < 30; ++r) {
    std::vector<Key> keys(rng.Uniform(40) + 1);
    for (Key& k : keys) k = static_cast<Key>(rng.Uniform(100000));
    std::sort(keys.begin(), keys.end());
    all.insert(all.end(), keys.begin(), keys.end());
    runs.push_back(MakeRun(&env, "r" + std::to_string(r), keys));
  }
  std::sort(all.begin(), all.end());
  MergeOptions options;
  options.temp_dir = "tmp";
  options.io.block_bytes = 256;
  MergeStats stats;
  ASSERT_TWRS_OK(
      PolyphaseMergeRuns(&env, runs, /*num_tapes=*/4, options, "out", &stats));
  std::vector<Key> keys;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &keys));
  EXPECT_EQ(keys, all);
  EXPECT_GT(stats.merge_steps, 0u);
  EXPECT_EQ(env.FileCount(), 1u);  // temps cleaned
}

TEST(PolyphaseMergeRunsTest, SingleRunCopiesToOutput) {
  MemEnv env;
  std::vector<RunInfo> runs = {MakeRun(&env, "r0", {4, 5, 6})};
  MergeOptions options;
  options.temp_dir = "tmp";
  ASSERT_TWRS_OK(
      PolyphaseMergeRuns(&env, runs, 3, options, "out", nullptr));
  std::vector<Key> keys;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &keys));
  EXPECT_EQ(keys, std::vector<Key>({4, 5, 6}));
}

TEST(PolyphaseMergeRunsTest, EmptyInput) {
  MemEnv env;
  MergeOptions options;
  options.temp_dir = "tmp";
  ASSERT_TWRS_OK(PolyphaseMergeRuns(&env, {}, 3, options, "out", nullptr));
  std::vector<Key> keys;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &keys));
  EXPECT_TRUE(keys.empty());
}

TEST(PolyphaseMergeRunsTest, RejectsTooFewTapes) {
  MemEnv env;
  MergeOptions options;
  EXPECT_TRUE(PolyphaseMergeRuns(&env, {}, 2, options, "out", nullptr)
                  .IsInvalidArgument());
}

TEST(PolyphaseMergeRunsTest, MatchesMergeRunsOutput) {
  // Both merge strategies must produce identical sorted files.
  Random rng(10);
  std::vector<std::vector<Key>> run_keys;
  for (int r = 0; r < 12; ++r) {
    std::vector<Key> keys(rng.Uniform(30) + 1);
    for (Key& k : keys) k = static_cast<Key>(rng.Uniform(5000));
    std::sort(keys.begin(), keys.end());
    run_keys.push_back(std::move(keys));
  }

  MemEnv env1;
  std::vector<RunInfo> runs1;
  for (size_t r = 0; r < run_keys.size(); ++r) {
    runs1.push_back(MakeRun(&env1, "r" + std::to_string(r), run_keys[r]));
  }
  MergeOptions options;
  options.temp_dir = "tmp";
  ASSERT_TWRS_OK(PolyphaseMergeRuns(&env1, runs1, 5, options, "out", nullptr));
  std::vector<Key> poly;
  ASSERT_TWRS_OK(ReadAllRecords(&env1, "out", &poly));

  MemEnv env2;
  std::vector<RunInfo> runs2;
  for (size_t r = 0; r < run_keys.size(); ++r) {
    runs2.push_back(MakeRun(&env2, "r" + std::to_string(r), run_keys[r]));
  }
  ASSERT_TWRS_OK(MergeRuns(&env2, runs2, options, "out", nullptr));
  std::vector<Key> plain;
  ASSERT_TWRS_OK(ReadAllRecords(&env2, "out", &plain));

  EXPECT_EQ(poly, plain);
}

}  // namespace
}  // namespace twrs
