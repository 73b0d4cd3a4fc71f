#include "core/record_source.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/run_generator.h"
#include "core/run_sink.h"
#include "io/mem_env.h"
#include "merge/external_sorter.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace twrs {
namespace {

using testing::Drain;
using testing::ShortBatchSource;

TEST(RecordSourceTest, VectorSourceHandsOutShortBatchesThenZero) {
  VectorSource source({1, 2, 3, 4, 5});
  Key out[4];
  size_t got = 0;
  ASSERT_TWRS_OK(source.NextBatch(out, 4, &got));
  EXPECT_EQ(got, 4u);
  ASSERT_TWRS_OK(source.NextBatch(out, 4, &got));
  ASSERT_EQ(got, 1u);
  EXPECT_EQ(out[0], 5);
  ASSERT_TWRS_OK(source.NextBatch(out, 4, &got));
  EXPECT_EQ(got, 0u);
  ASSERT_TWRS_OK(source.NextBatch(out, 4, &got));
  EXPECT_EQ(got, 0u);  // the end stays the end
}

TEST(RecordSourceTest, ReadFullReadsPastShortBatches) {
  ShortBatchSource source({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  std::vector<Key> out(8);
  size_t got = 0;
  ASSERT_TWRS_OK(ReadFull(&source, out.data(), out.size(), &got));
  EXPECT_EQ(got, 8u);
  EXPECT_EQ(out, (std::vector<Key>{1, 2, 3, 4, 5, 6, 7, 8}));
  ASSERT_TWRS_OK(ReadFull(&source, out.data(), out.size(), &got));
  EXPECT_EQ(got, 2u);  // fewer than asked: the stream ended
}

TEST(RecordSourceTest, CursorReturnsTheSourceError) {
  MemEnv env;
  testing::WriteTornInput(&env, "in");
  FileRecordSource source(&env, "in");
  RecordCursor cursor(&source);
  Key key = 0;
  bool eof = false;
  Status s;
  size_t read = 0;
  while ((s = cursor.Next(&key, &eof)).ok() && !eof) ++read;
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_LT(read, 20000u);
}

std::vector<Key> Input(Dataset dataset) {
  WorkloadOptions wl;
  wl.num_records = 20000;
  wl.seed = 5;
  return Drain(MakeWorkload(dataset, wl).get());
}

// Every run generator must produce the same runs whether its source hands
// out whole batches or 1-7 records per call.
TEST(RecordSourceTest, ShortBatchesGiveIdenticalRuns) {
  const RunGenAlgorithm algorithms[] = {
      RunGenAlgorithm::kReplacementSelection,
      RunGenAlgorithm::kTwoWayReplacementSelection,
      RunGenAlgorithm::kLoadSortStore,
      RunGenAlgorithm::kBatchedReplacementSelection,
  };
  for (const Dataset dataset : {Dataset::kRandom, Dataset::kAlternating}) {
    const std::vector<Key> input = Input(dataset);
    for (const RunGenAlgorithm algorithm : algorithms) {
      SCOPED_TRACE(std::string(DatasetName(dataset)) + " " +
                   RunGenAlgorithmName(algorithm));
      const size_t memory = 1000;
      const TwoWayOptions twrs = TwoWayOptions::Recommended(memory);
      VectorSource full(input);
      ShortBatchSource short_batches(input);
      CollectingRunSink full_sink;
      CollectingRunSink short_sink;
      ASSERT_TWRS_OK(MakeRunGenerator(algorithm, memory, twrs)
                         ->Generate(&full, &full_sink, nullptr));
      ASSERT_TWRS_OK(MakeRunGenerator(algorithm, memory, twrs)
                         ->Generate(&short_batches, &short_sink, nullptr));
      EXPECT_GT(full_sink.collected().size(), 1u);
      EXPECT_EQ(short_sink.collected(), full_sink.collected());
    }
  }
}

// The same for both top-K strategies, which read the source through the
// sorter's ingest wrapper.
TEST(RecordSourceTest, ShortBatchesGiveIdenticalTopK) {
  const std::vector<Key> input = Input(Dataset::kRandom);
  for (const TopKStrategy strategy :
       {TopKStrategy::kDualHeap, TopKStrategy::kRunPruningMerge}) {
    SCOPED_TRACE(TopKStrategyName(strategy));
    MemEnv env;
    ExternalSortOptions options;
    options.memory_records = 1000;
    options.twrs = TwoWayOptions::Recommended(options.memory_records);
    options.temp_dir = "tmp";
    options.limit = 500;
    options.topk_strategy = strategy;
    ExternalSorter sorter(&env, options);
    VectorSource full(input);
    ShortBatchSource short_batches(input);
    ExternalSortResult result;
    ASSERT_TWRS_OK(sorter.Sort(&full, "full", nullptr));
    ASSERT_TWRS_OK(sorter.Sort(&short_batches, "short", &result));
    EXPECT_EQ(result.topk_strategy, strategy);
    EXPECT_EQ(result.run_gen.total_records, input.size());
    ASSERT_NE(env.FileContents("full"), nullptr);
    EXPECT_EQ(env.FileContents("full")->size(), 500 * kRecordBytes);
    EXPECT_EQ(*env.FileContents("short"), *env.FileContents("full"));
  }
}

}  // namespace
}  // namespace twrs
