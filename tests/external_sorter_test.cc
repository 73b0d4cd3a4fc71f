#include "merge/external_sorter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/load_sort_store.h"
#include "io/mem_env.h"
#include "io/posix_env.h"
#include "util/random.h"
#include "simd/dispatch.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace twrs {
namespace {

using testing::ChecksumOf;
using testing::Drain;
using testing::GenerateRuns;

TEST(LoadSortStoreTest, RunsAreMemorySized) {
  LoadSortStoreOptions options;
  options.memory_records = 10;
  LoadSortStore lss(options);
  std::vector<Key> input;
  for (int i = 25; i > 0; --i) input.push_back(i);
  auto result = GenerateRuns(&lss, input);
  ASSERT_EQ(result.stats.run_lengths.size(), 3u);
  EXPECT_EQ(result.stats.run_lengths[0], 10u);
  EXPECT_EQ(result.stats.run_lengths[1], 10u);
  EXPECT_EQ(result.stats.run_lengths[2], 5u);
  testing::ExpectValidRuns(result.runs, input);
}

TEST(LoadSortStoreTest, RejectsZeroMemory) {
  LoadSortStoreOptions options;
  LoadSortStore lss(options);
  VectorSource source({1});
  CollectingRunSink sink;
  EXPECT_TRUE(lss.Generate(&source, &sink, nullptr).IsInvalidArgument());
}

TEST(ExternalSorterTest, AlgorithmNames) {
  EXPECT_STREQ(RunGenAlgorithmName(RunGenAlgorithm::kReplacementSelection),
               "RS");
  EXPECT_STREQ(
      RunGenAlgorithmName(RunGenAlgorithm::kTwoWayReplacementSelection),
      "2WRS");
  EXPECT_STREQ(RunGenAlgorithmName(RunGenAlgorithm::kLoadSortStore), "LSS");
}

// Every algorithm on every dataset must produce a sorted permutation of
// the input through the full two-phase pipeline.
using SortParam = std::tuple<int, int>;  // algorithm, dataset

class ExternalSorterPipelineTest : public ::testing::TestWithParam<SortParam> {
};

TEST_P(ExternalSorterPipelineTest, SortsToAPermutation) {
  const auto [algorithm, dataset] = GetParam();
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 5000;
  wl.seed = 77;
  wl.sections = 8;
  auto input = Drain(MakeWorkload(static_cast<Dataset>(dataset), wl).get());

  ExternalSortOptions options;
  options.algorithm = static_cast<RunGenAlgorithm>(algorithm);
  options.memory_records = 128;
  options.twrs = TwoWayOptions::Recommended(128, 3);
  options.fan_in = 4;
  options.temp_dir = "tmp";
  options.block_bytes = 512;
  ExternalSorter sorter(&env, options);

  VectorSource source(input);
  ExternalSortResult result;
  ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));

  uint64_t count = 0;
  KeyChecksum checksum;
  ASSERT_TWRS_OK(VerifySortedFile(&env, "out", &count, &checksum));
  EXPECT_EQ(count, input.size());
  EXPECT_TRUE(checksum == ChecksumOf(input));
  EXPECT_EQ(result.output_records, input.size());
  EXPECT_GT(result.run_gen.num_runs(), 0u);
  EXPECT_GE(result.total_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsAndDatasets, ExternalSorterPipelineTest,
    ::testing::Combine(::testing::Range(0, 3),
                       ::testing::Range(0, kNumDatasets)));

TEST(ExternalSorterTest, EmptyInputProducesEmptySortedFile) {
  MemEnv env;
  ExternalSortOptions options;
  options.memory_records = 16;
  options.twrs = TwoWayOptions::Recommended(16);
  options.temp_dir = "tmp";
  ExternalSorter sorter(&env, options);
  VectorSource source({});
  ExternalSortResult result;
  ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));
  uint64_t count = 99;
  ASSERT_TWRS_OK(VerifySortedFile(&env, "out", &count, nullptr));
  EXPECT_EQ(count, 0u);
}

TEST(ExternalSorterTest, TempFilesAreRemovedAfterSort) {
  MemEnv env;
  ExternalSortOptions options;
  options.memory_records = 32;
  options.twrs = TwoWayOptions::Recommended(32);
  options.temp_dir = "tmp";
  options.fan_in = 2;
  ExternalSorter sorter(&env, options);
  WorkloadOptions wl;
  wl.num_records = 2000;
  wl.seed = 5;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  VectorSource source(input);
  ASSERT_TWRS_OK(sorter.Sort(&source, "out", nullptr));
  EXPECT_EQ(env.FileCount(), 1u);  // only the sorted output remains
}

TEST(ExternalSorterTest, SequentialSortsDoNotCollide) {
  MemEnv env;
  ExternalSortOptions options;
  options.memory_records = 32;
  options.twrs = TwoWayOptions::Recommended(32);
  options.temp_dir = "tmp";
  ExternalSorter sorter(&env, options);
  for (int round = 0; round < 3; ++round) {
    WorkloadOptions wl;
    wl.num_records = 500;
    wl.seed = 100 + round;
    auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
    VectorSource source(input);
    const std::string out = "out" + std::to_string(round);
    ASSERT_TWRS_OK(sorter.Sort(&source, out, nullptr));
    uint64_t count = 0;
    KeyChecksum checksum;
    ASSERT_TWRS_OK(VerifySortedFile(&env, out, &count, &checksum));
    EXPECT_EQ(count, input.size());
    EXPECT_TRUE(checksum == ChecksumOf(input));
  }
}

// The parallel path (async run writes, prefetching merge inputs, pool-
// dispatched leaf merges) must be a pure performance feature: same record
// count, same checksum, byte-identical output file.
TEST(ExternalSorterParallelTest, ParallelOutputIsByteIdenticalToSerial) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 20000;
  wl.seed = 42;
  wl.sections = 16;
  auto input =
      testing::Drain(MakeWorkload(Dataset::kAlternating, wl).get());

  ExternalSortOptions options;
  options.memory_records = 128;
  options.twrs = TwoWayOptions::Recommended(128, 7);
  options.fan_in = 4;
  options.temp_dir = "tmp";
  options.block_bytes = 512;  // many blocks per stream

  ExternalSortResult serial_result;
  {
    ExternalSorter sorter(&env, options);
    VectorSource source(input);
    ASSERT_TWRS_OK(sorter.Sort(&source, "out_serial", &serial_result));
  }

  options.parallel.worker_threads = 4;
  options.parallel.prefetch_blocks = 3;
  ExternalSortResult parallel_result;
  {
    ExternalSorter sorter(&env, options);
    VectorSource source(input);
    ASSERT_TWRS_OK(sorter.Sort(&source, "out_parallel", &parallel_result));
  }

  uint64_t serial_count = 0, parallel_count = 0;
  KeyChecksum serial_sum, parallel_sum;
  ASSERT_TWRS_OK(
      VerifySortedFile(&env, "out_serial", &serial_count, &serial_sum));
  ASSERT_TWRS_OK(
      VerifySortedFile(&env, "out_parallel", &parallel_count, &parallel_sum));
  EXPECT_EQ(serial_count, input.size());
  EXPECT_EQ(parallel_count, serial_count);
  EXPECT_TRUE(parallel_sum == serial_sum);
  EXPECT_TRUE(serial_sum == testing::ChecksumOf(input));

  const std::vector<uint8_t>* serial_bytes = env.FileContents("out_serial");
  const std::vector<uint8_t>* parallel_bytes =
      env.FileContents("out_parallel");
  ASSERT_NE(serial_bytes, nullptr);
  ASSERT_NE(parallel_bytes, nullptr);
  EXPECT_TRUE(*serial_bytes == *parallel_bytes);

  // Identical merge schedule, so identical stats.
  EXPECT_EQ(parallel_result.run_gen.num_runs(),
            serial_result.run_gen.num_runs());
  EXPECT_EQ(parallel_result.merge.merge_steps,
            serial_result.merge.merge_steps);
  EXPECT_EQ(parallel_result.merge.records_written,
            serial_result.merge.records_written);
}

TEST(ExternalSorterTest, SimdOutputIsByteIdenticalToForcedScalar) {
  // Pin the dispatch-level contract end to end: a full two-phase sort must
  // write byte-identical output whether the simd kernels run vectorized or
  // forced scalar. On hosts without AVX2 both halves run scalar and the
  // test degenerates to a determinism check.
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 20000;
  wl.seed = 11;
  wl.sections = 16;
  auto input = testing::Drain(MakeWorkload(Dataset::kAlternating, wl).get());

  ExternalSortOptions options;
  options.memory_records = 128;
  options.twrs = TwoWayOptions::Recommended(128, 7);
  options.fan_in = 4;  // small fan-in: exercises the MinIndexN merge path
  options.temp_dir = "tmp";
  options.block_bytes = 512;

  simd::ForceScalar(false);
  {
    ExternalSorter sorter(&env, options);
    VectorSource source(input);
    ASSERT_TWRS_OK(sorter.Sort(&source, "out_simd", nullptr));
  }
  simd::ForceScalar(true);
  {
    ExternalSorter sorter(&env, options);
    VectorSource source(input);
    ASSERT_TWRS_OK(sorter.Sort(&source, "out_scalar", nullptr));
  }
  simd::ClearForceScalarOverride();

  const std::vector<uint8_t>* simd_bytes = env.FileContents("out_simd");
  const std::vector<uint8_t>* scalar_bytes = env.FileContents("out_scalar");
  ASSERT_NE(simd_bytes, nullptr);
  ASSERT_NE(scalar_bytes, nullptr);
  EXPECT_EQ(simd_bytes->size(), input.size() * kRecordBytes);
  EXPECT_TRUE(*simd_bytes == *scalar_bytes);

  uint64_t count = 0;
  KeyChecksum sum;
  ASSERT_TWRS_OK(VerifySortedFile(&env, "out_simd", &count, &sum));
  EXPECT_EQ(count, input.size());
  EXPECT_TRUE(sum == testing::ChecksumOf(input));
}

TEST(ExternalSorterParallelTest, ParallelSortCleansUpTempFiles) {
  MemEnv env;
  ExternalSortOptions options;
  options.memory_records = 64;
  options.twrs = TwoWayOptions::Recommended(64);
  options.temp_dir = "tmp";
  options.fan_in = 2;
  options.parallel.worker_threads = 3;
  options.parallel.prefetch_blocks = 2;
  ExternalSorter sorter(&env, options);
  WorkloadOptions wl;
  wl.num_records = 5000;
  wl.seed = 9;
  auto input = testing::Drain(MakeWorkload(Dataset::kRandom, wl).get());
  VectorSource source(input);
  ASSERT_TWRS_OK(sorter.Sort(&source, "out", nullptr));
  EXPECT_EQ(env.FileCount(), 1u);  // only the sorted output remains
}

// Regression test for the fixed temp_dir collision: sorts sharing one
// temp_dir used to overwrite each other's run files ("sort0_run0_s1").
// Each Sort now works in a unique subdirectory, so fully concurrent sorts
// against one Env must both succeed and verify.
TEST(ExternalSorterParallelTest, ConcurrentSortsSharingTempDirDoNotCollide) {
  MemEnv env;
  constexpr int kSorts = 4;
  std::vector<std::vector<Key>> inputs(kSorts);
  std::vector<Status> statuses(kSorts);
  std::vector<std::thread> threads;
  for (int i = 0; i < kSorts; ++i) {
    WorkloadOptions wl;
    wl.num_records = 4000;
    wl.seed = 1000 + i;
    inputs[i] = testing::Drain(MakeWorkload(Dataset::kRandom, wl).get());
    threads.emplace_back([&env, &inputs, &statuses, i] {
      ExternalSortOptions options;
      options.memory_records = 64;
      options.twrs = TwoWayOptions::Recommended(64);
      options.fan_in = 3;
      options.temp_dir = "tmp";  // deliberately shared
      options.block_bytes = 512;
      // Odd sorts additionally run their own parallel pipeline.
      options.parallel.worker_threads = (i % 2 == 1) ? 2 : 0;
      ExternalSorter sorter(&env, options);
      VectorSource source(inputs[i]);
      statuses[i] = sorter.Sort(&source, "out" + std::to_string(i), nullptr);
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kSorts; ++i) {
    ASSERT_TRUE(statuses[i].ok()) << statuses[i].ToString();
    uint64_t count = 0;
    KeyChecksum checksum;
    ASSERT_TWRS_OK(VerifySortedFile(&env, "out" + std::to_string(i), &count,
                                    &checksum));
    EXPECT_EQ(count, inputs[i].size());
    EXPECT_TRUE(checksum == testing::ChecksumOf(inputs[i]));
  }
}

// ---------------------------------------------------------------------------
// Cooperative cancellation and error-path hygiene

// Yields `input` records, firing the token after `fire_after` of them —
// deterministic mid-run-generation cancellation.
class CancelAfterNSource : public RecordSource {
 public:
  CancelAfterNSource(std::vector<Key> keys, size_t fire_after,
                     CancelToken* token)
      : keys_(std::move(keys)), fire_after_(fire_after), token_(token) {}

  bool Next(Key* key) override {
    if (pos_ == fire_after_) token_->Cancel();
    if (pos_ == keys_.size()) return false;
    *key = keys_[pos_++];
    return true;
  }

 private:
  std::vector<Key> keys_;
  size_t fire_after_;
  CancelToken* token_;
  size_t pos_ = 0;
};

// MemEnv that fires the token on the first sequential open. The sort's
// run generation only writes, so the first read is the merge phase
// opening its first input — deterministic mid-merge cancellation.
class CancelOnFirstReadEnv : public MemEnv {
 public:
  explicit CancelOnFirstReadEnv(CancelToken* token) : token_(token) {}

  Status NewSequentialFile(const std::string& path,
                           std::unique_ptr<SequentialFile>* out) override {
    token_->Cancel();
    return MemEnv::NewSequentialFile(path, out);
  }

 private:
  CancelToken* token_;
};

ExternalSortOptions CancelTestOptions(const CancelToken* token) {
  ExternalSortOptions options;
  options.memory_records = 128;
  options.twrs = TwoWayOptions::Recommended(128);
  options.fan_in = 4;
  options.temp_dir = "tmp";
  options.block_bytes = 512;
  options.cancel = token;
  return options;
}

TEST(ExternalSorterCancelTest, PreCancelledSortFailsFastAndWritesNothing) {
  MemEnv env;
  CancelToken token;
  token.Cancel();
  ExternalSorter sorter(&env, CancelTestOptions(&token));
  VectorSource source({3, 1, 2});
  EXPECT_TRUE(sorter.Sort(&source, "out", nullptr).IsCancelled());
  EXPECT_EQ(env.FileCount(), 0u);
}

TEST(ExternalSorterCancelTest, CancelMidRunGenerationUnwindsAndCleansUp) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 20000;
  wl.seed = 21;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());

  CancelToken token;
  ExternalSorter sorter(&env, CancelTestOptions(&token));
  // Fire a quarter of the way in: several runs already sit on disk.
  CancelAfterNSource source(input, 5000, &token);
  const Status status = sorter.Sort(&source, "out", nullptr);
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();
  // No run files, no partial output — nothing survives the cancel.
  EXPECT_EQ(env.FileCount(), 0u);
}

TEST(ExternalSorterCancelTest, CancelMidMergeUnwindsAndCleansUp) {
  CancelToken token;
  CancelOnFirstReadEnv env(&token);
  WorkloadOptions wl;
  wl.num_records = 5000;
  wl.seed = 22;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());

  ExternalSorter sorter(&env, CancelTestOptions(&token));
  VectorSource source(input);
  const Status status = sorter.Sort(&source, "out", nullptr);
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();
  EXPECT_EQ(status.message(), "merge cancelled");
  EXPECT_EQ(env.FileCount(), 0u);
}

TEST(ExternalSorterCancelTest, ParallelSortAlsoObservesTheToken) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 20000;
  wl.seed = 23;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());

  CancelToken token;
  ExternalSortOptions options = CancelTestOptions(&token);
  options.parallel.worker_threads = 2;
  options.parallel.dedicated_pool = true;
  ExternalSorter sorter(&env, options);
  CancelAfterNSource source(input, 5000, &token);
  EXPECT_TRUE(sorter.Sort(&source, "out", nullptr).IsCancelled());
  EXPECT_EQ(env.FileCount(), 0u);
}

TEST(ExternalSorterTest, FailedMergeLeavesNoScratchOrTornOutput) {
  MemEnv env;
  ExternalSortOptions options;
  options.memory_records = 32;
  options.twrs = TwoWayOptions::Recommended(32);
  options.temp_dir = "tmp";
  options.fan_in = 1;  // poison: run generation succeeds, the merge fails
  ExternalSorter sorter(&env, options);
  WorkloadOptions wl;
  wl.num_records = 2000;
  wl.seed = 24;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  VectorSource source(input);
  EXPECT_TRUE(sorter.Sort(&source, "out", nullptr).IsInvalidArgument());
  EXPECT_EQ(env.FileCount(), 0u);
}

TEST(ExternalSorterTest, FailureDoesNotDeleteAPreexistingOutputFile) {
  MemEnv env;
  // Yesterday's result, re-sorted into the same destination today.
  ASSERT_TWRS_OK(WriteAllRecords(&env, "out", {1, 2, 3}));

  CancelToken token;
  token.Cancel();
  ExternalSorter sorter(&env, CancelTestOptions(&token));
  VectorSource source({9, 8, 7});
  EXPECT_TRUE(sorter.Sort(&source, "out", nullptr).IsCancelled());

  // The failed sort never opened the output; the old file must survive.
  std::vector<Key> keys;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &keys));
  EXPECT_EQ(keys, (std::vector<Key>{1, 2, 3}));
}

// Regression test: a source that fails mid-stream (here a torn input file,
// 3 bytes past the last whole record) used to end run generation early
// and let the sort publish a sorted prefix over the existing output.
TEST(ExternalSorterTest, FailedSourceFailsTheSortAndKeepsTheOutput) {
  MemEnv env;
  {
    std::vector<Key> keys(20000);
    Random rng(27);
    for (Key& k : keys) k = static_cast<Key>(rng.Next());
    std::vector<uint8_t> bytes(keys.size() * kRecordBytes + 3, 0x5A);
    EncodeKeys(keys.data(), keys.size(), bytes.data());
    std::unique_ptr<WritableFile> in;
    ASSERT_TWRS_OK(env.NewWritableFile("in", &in));
    ASSERT_TWRS_OK(in->Append(bytes.data(), bytes.size()));
    ASSERT_TWRS_OK(in->Close());
  }
  ASSERT_TWRS_OK(WriteAllRecords(&env, "out", {1, 2, 3}));
  const std::vector<uint8_t> before = *env.FileContents("out");

  struct Case {
    const char* name;
    size_t worker_threads;
    uint64_t limit;
    TopKStrategy strategy;
  };
  const Case cases[] = {
      {"serial", 0, 0, TopKStrategy::kAuto},
      {"worker_threads=1", 1, 0, TopKStrategy::kAuto},
      {"dual-heap", 0, 100, TopKStrategy::kDualHeap},
      {"run-pruning-merge", 0, 100, TopKStrategy::kRunPruningMerge},
  };
  for (const Case& c : cases) {
    ExternalSortOptions options;
    options.memory_records = 1024;
    options.temp_dir = "tmp";
    options.parallel.worker_threads = c.worker_threads;
    options.limit = c.limit;
    options.topk_strategy = c.strategy;
    ExternalSorter sorter(&env, options);
    FileRecordSource source(&env, "in");
    ExternalSortResult result;
    const Status s = sorter.Sort(&source, "out", &result);
    EXPECT_TRUE(s.IsCorruption()) << c.name << ": " << s.ToString();
    ASSERT_NE(env.FileContents("out"), nullptr) << c.name;
    EXPECT_EQ(*env.FileContents("out"), before) << c.name;
    std::vector<std::string> scratch;
    ASSERT_TWRS_OK(env.ListDir("tmp", &scratch));
    EXPECT_TRUE(scratch.empty()) << c.name << ": " << scratch.size();
    EXPECT_EQ(env.FileCount(), 2u) << c.name;  // the input and the output
  }
}

TEST(ExternalSorterCancelTest, TornOutputThisSortTruncatedIsRemoved) {
  CancelToken token;
  CancelOnFirstReadEnv env(&token);
  // A pre-existing output that the re-sort truncates before the merge's
  // first input read fires the token: the old data is already gone, and
  // the torn partial must not be left masquerading as a result.
  ASSERT_TWRS_OK(WriteAllRecords(&env, "out", {1, 2, 3}));

  ExternalSortOptions options = CancelTestOptions(&token);
  // Single merge pass: the final merge truncates "out" before it opens
  // its first input, which is what fires the token.
  options.fan_in = 64;
  ExternalSorter sorter(&env, options);
  WorkloadOptions wl;
  wl.num_records = 5000;
  wl.seed = 26;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  VectorSource source(input);
  EXPECT_TRUE(sorter.Sort(&source, "out", nullptr).IsCancelled());
  EXPECT_FALSE(env.FileExists("out"));
  EXPECT_EQ(env.FileCount(), 0u);
}

TEST(ExternalSorterTest, ReportsEngineIoVolume) {
  MemEnv env;
  ExternalSortOptions options;
  options.memory_records = 64;
  options.twrs = TwoWayOptions::Recommended(64);
  options.temp_dir = "tmp";
  options.fan_in = 2;  // several merge passes
  ExternalSorter sorter(&env, options);
  WorkloadOptions wl;
  wl.num_records = 5000;
  wl.seed = 25;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  VectorSource source(input);
  ExternalSortResult result;
  ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));

  const uint64_t input_bytes = input.size() * kRecordBytes;
  // Runs written once plus the output, plus intermediate passes: at least
  // 2x the input volume out, at least 1x back in.
  EXPECT_GE(result.bytes_written, 2 * input_bytes);
  EXPECT_GE(result.bytes_read, input_bytes);
}

// ---------------------------------------------------------------------------
// Top-K selection (options.limit): every strategy must produce output
// byte-identical to a full sort truncated to the requested end.

/// The reference a LIMIT plan must match: full sort, keep K from the
/// requested end, ascending.
std::vector<Key> TruncatedReference(std::vector<Key> input, uint64_t k,
                                    SelectOrder order) {
  std::sort(input.begin(), input.end());
  k = std::min<uint64_t>(k, input.size());
  if (order == SelectOrder::kAscending) {
    input.resize(k);
  } else {
    input.erase(input.begin(), input.end() - static_cast<ptrdiff_t>(k));
  }
  return input;
}

ExternalSortOptions TopKTestOptions() {
  ExternalSortOptions options;
  options.memory_records = 128;
  options.twrs = TwoWayOptions::Recommended(128, 3);
  options.fan_in = 4;  // multiple merge passes: intermediate clamps too
  options.temp_dir = "tmp";
  options.block_bytes = 512;
  return options;
}

TEST(ExternalSorterTopKTest, EveryStrategyMatchesFullSortTruncation) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 5000;
  wl.seed = 31;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());

  const uint64_t limits[] = {1, 37, 500, 2500, 5000, 9999};
  const TopKStrategy strategies[] = {TopKStrategy::kAuto,
                                     TopKStrategy::kDualHeap,
                                     TopKStrategy::kRunPruningMerge};
  for (SelectOrder order :
       {SelectOrder::kAscending, SelectOrder::kDescending}) {
    for (uint64_t limit : limits) {
      const auto reference = TruncatedReference(input, limit, order);
      for (TopKStrategy strategy : strategies) {
        ExternalSortOptions options = TopKTestOptions();
        options.limit = limit;
        options.order = order;
        options.topk_strategy = strategy;
        ExternalSorter sorter(&env, options);
        VectorSource source(input);
        ExternalSortResult result;
        SCOPED_TRACE(std::string(TopKStrategyName(strategy)) + "/" +
                     SelectOrderName(order) + "/K=" + std::to_string(limit));
        ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));
        EXPECT_EQ(result.output_records, reference.size());
        EXPECT_NE(result.topk_strategy, TopKStrategy::kAuto);

        std::vector<Key> got;
        ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &got));
        EXPECT_EQ(got, reference);
        EXPECT_EQ(env.FileCount(), 1u);  // scratch cleaned up
        ASSERT_TWRS_OK(env.RemoveFile("out"));
      }
    }
  }
}

TEST(ExternalSorterTopKTest, AutoPlansDualHeapOnlyWhenKFitsMemory) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 3000;
  wl.seed = 32;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  for (uint64_t limit : {uint64_t{64}, uint64_t{2000}}) {
    ExternalSortOptions options = TopKTestOptions();  // memory_records = 128
    options.limit = limit;
    ExternalSorter sorter(&env, options);
    VectorSource source(input);
    ExternalSortResult result;
    ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));
    EXPECT_EQ(result.topk_strategy, limit <= options.memory_records
                                        ? TopKStrategy::kDualHeap
                                        : TopKStrategy::kRunPruningMerge);
    ASSERT_TWRS_OK(env.RemoveFile("out"));
  }
}

TEST(ExternalSorterTopKTest, DualHeapDoesNoRunIo) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 4000;
  wl.seed = 33;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  ExternalSortOptions options = TopKTestOptions();
  options.limit = 50;
  options.topk_strategy = TopKStrategy::kDualHeap;
  ExternalSorter sorter(&env, options);
  VectorSource source(input);
  ExternalSortResult result;
  ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));
  EXPECT_EQ(result.run_gen.num_runs(), 0u);
  EXPECT_EQ(result.bytes_read, 0u);  // streamed source, no scratch reads
  EXPECT_EQ(result.bytes_written, 50u * kRecordBytes);
  EXPECT_EQ(result.run_gen.total_records, input.size());
}

TEST(ExternalSorterTopKTest, RunPruningMergeReadsStrictlyFewerBytes) {
  // The acceptance pin: with the same input, memory and merge schedule, a
  // run-pruned merge must read strictly fewer bytes than the full sort —
  // run slices clamp what each cursor fetches, and sampled bounds prune
  // whole runs without ever opening them. bytes_read comes from the
  // sorter's internal CountingEnv. Ascending-trend input with local
  // shuffle (a scan of a roughly time-ordered table): runs cover narrow,
  // mostly disjoint key bands, so for a small K nearly every run sits
  // entirely above the selection bound.
  MemEnv env;
  std::vector<Key> input;
  Random rng(34);
  for (Key band = 0; band < 13; ++band) {
    for (int i = 0; i < 4096; ++i) {
      input.push_back(band * 1000000 +
                      static_cast<Key>(rng.Uniform(1000000)));
    }
  }

  ExternalSortOptions options = TopKTestOptions();
  options.memory_records = 1024;
  options.twrs = TwoWayOptions::Recommended(1024, 3);
  options.fan_in = 128;  // single merge pass over every run
  ExternalSortResult full;
  {
    ExternalSorter sorter(&env, options);
    VectorSource source(input);
    ASSERT_TWRS_OK(sorter.Sort(&source, "out_full", &full));
  }

  options.limit = 100;
  options.topk_strategy = TopKStrategy::kRunPruningMerge;
  ExternalSortResult pruned;
  {
    ExternalSorter sorter(&env, options);
    VectorSource source(input);
    ASSERT_TWRS_OK(sorter.Sort(&source, "out_topk", &pruned));
  }

  EXPECT_LT(pruned.bytes_read, full.bytes_read);
  EXPECT_LT(pruned.bytes_written, full.bytes_written);
  EXPECT_GE(pruned.merge.runs_pruned, 1u);
  EXPECT_GT(pruned.merge.records_pruned, 0u);

  std::vector<Key> got;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "out_topk", &got));
  EXPECT_EQ(got, TruncatedReference(input, 100, SelectOrder::kAscending));
}

TEST(ExternalSorterTopKTest, PartitionedFinalMergeHonorsTheLimit) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 20000;
  wl.seed = 35;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  for (SelectOrder order :
       {SelectOrder::kAscending, SelectOrder::kDescending}) {
    ExternalSortOptions options = TopKTestOptions();
    options.fan_in = 128;  // all runs reach the final merge
    options.limit = 3000;
    options.order = order;
    options.topk_strategy = TopKStrategy::kRunPruningMerge;
    options.parallel.worker_threads = 4;
    options.parallel.final_merge_threads = 4;
    ExternalSorter sorter(&env, options);
    VectorSource source(input);
    ExternalSortResult result;
    ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));
    std::vector<Key> got;
    ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &got));
    EXPECT_EQ(got, TruncatedReference(input, 3000, order))
        << SelectOrderName(order);
    ASSERT_TWRS_OK(env.RemoveFile("out"));
  }
}

TEST(ExternalSorterTopKTest, ForcedScalarSimdIsByteIdentical) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 10000;
  wl.seed = 36;
  auto input = Drain(MakeWorkload(Dataset::kAlternating, wl).get());

  ExternalSortOptions options = TopKTestOptions();
  options.limit = 700;
  options.topk_strategy = TopKStrategy::kRunPruningMerge;

  simd::ForceScalar(false);
  {
    ExternalSorter sorter(&env, options);
    VectorSource source(input);
    ASSERT_TWRS_OK(sorter.Sort(&source, "out_simd", nullptr));
  }
  simd::ForceScalar(true);
  {
    ExternalSorter sorter(&env, options);
    VectorSource source(input);
    ASSERT_TWRS_OK(sorter.Sort(&source, "out_scalar", nullptr));
  }
  simd::ClearForceScalarOverride();

  const std::vector<uint8_t>* simd_bytes = env.FileContents("out_simd");
  const std::vector<uint8_t>* scalar_bytes = env.FileContents("out_scalar");
  ASSERT_NE(simd_bytes, nullptr);
  ASSERT_NE(scalar_bytes, nullptr);
  EXPECT_EQ(simd_bytes->size(), 700u * kRecordBytes);
  EXPECT_TRUE(*simd_bytes == *scalar_bytes);
}

TEST(ExternalSorterTopKTest, LimitOnEmptyAndTinyInputs) {
  MemEnv env;
  for (TopKStrategy strategy :
       {TopKStrategy::kDualHeap, TopKStrategy::kRunPruningMerge}) {
    ExternalSortOptions options = TopKTestOptions();
    options.limit = 10;
    options.topk_strategy = strategy;
    ExternalSorter sorter(&env, options);
    {
      VectorSource source({});
      ExternalSortResult result;
      ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));
      EXPECT_EQ(result.output_records, 0u);
      std::vector<Key> got;
      ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &got));
      EXPECT_TRUE(got.empty());
    }
    {
      VectorSource source({3, 1, 2});
      ExternalSortResult result;
      ASSERT_TWRS_OK(sorter.Sort(&source, "out", &result));
      EXPECT_EQ(result.output_records, 3u);
      std::vector<Key> got;
      ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &got));
      EXPECT_EQ(got, (std::vector<Key>{1, 2, 3}));
    }
    ASSERT_TWRS_OK(env.RemoveFile("out"));
  }
}

TEST(ExternalSorterTopKTest, SortIntoRangeRejectsLimit) {
  MemEnv env;
  ExternalSortOptions options = TopKTestOptions();
  options.limit = 10;
  ExternalSorter sorter(&env, options);
  VectorSource source({3, 1, 2});
  MergeOutputRange range;
  range.positioned = true;
  range.offset = 0;
  range.length = 3 * kRecordBytes;
  EXPECT_TRUE(
      sorter.SortIntoRange(&source, "out", range, nullptr)
          .IsInvalidArgument());
}

TEST(ExternalSorterTopKTest, CancelDuringDualHeapSelectionCleansUp) {
  MemEnv env;
  WorkloadOptions wl;
  wl.num_records = 20000;
  wl.seed = 37;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  CancelToken token;
  ExternalSortOptions options = TopKTestOptions();
  options.cancel = &token;
  options.limit = 10;
  options.topk_strategy = TopKStrategy::kDualHeap;
  ExternalSorter sorter(&env, options);
  CancelAfterNSource source(input, 5000, &token);
  EXPECT_TRUE(sorter.Sort(&source, "out", nullptr).IsCancelled());
  EXPECT_EQ(env.FileCount(), 0u);
}

TEST(VerifySortedFileTest, DetectsDisorder) {
  MemEnv env;
  ASSERT_TWRS_OK(WriteAllRecords(&env, "f", {3, 1, 2}));
  EXPECT_TRUE(VerifySortedFile(&env, "f", nullptr, nullptr).IsCorruption());
}

TEST(VerifySortedFileTest, DetectsDisorderedTailAfterLongPrefix) {
  MemEnv env;
  std::vector<Key> keys;
  for (Key k = 0; k < 1000; ++k) keys.push_back(k);
  keys.push_back(500);  // out of order only at the very end
  ASSERT_TWRS_OK(WriteAllRecords(&env, "f", keys));
  EXPECT_TRUE(VerifySortedFile(&env, "f", nullptr, nullptr).IsCorruption());
}

TEST(VerifySortedFileTest, EmptyFile) {
  MemEnv env;
  ASSERT_TWRS_OK(WriteAllRecords(&env, "f", {}));
  uint64_t count = 99;
  KeyChecksum checksum;
  ASSERT_TWRS_OK(VerifySortedFile(&env, "f", &count, &checksum));
  EXPECT_EQ(count, 0u);
  EXPECT_TRUE(checksum == KeyChecksum());
}

TEST(VerifySortedFileTest, SingleRecord) {
  MemEnv env;
  ASSERT_TWRS_OK(WriteAllRecords(&env, "f", {-7}));
  uint64_t count = 0;
  KeyChecksum checksum;
  ASSERT_TWRS_OK(VerifySortedFile(&env, "f", &count, &checksum));
  EXPECT_EQ(count, 1u);
  EXPECT_TRUE(checksum == ChecksumOf({-7}));
}

TEST(VerifySortedFileTest, DuplicateKeysAreSorted) {
  MemEnv env;
  ASSERT_TWRS_OK(WriteAllRecords(&env, "f", {1, 1, 1, 2, 2}));
  uint64_t count = 0;
  ASSERT_TWRS_OK(VerifySortedFile(&env, "f", &count, nullptr));
  EXPECT_EQ(count, 5u);
}

TEST(VerifySortedFileTest, MissingFileIsAnError) {
  MemEnv env;
  EXPECT_FALSE(VerifySortedFile(&env, "absent", nullptr, nullptr).ok());
}

// ------------------------------------------------ real-file pooled sort

TEST(ExternalSorterTest, PosixPooledSortIsByteIdenticalToSerial) {
  // The pump-thread decorators end to end on real files: async run
  // flushing, prefetching merge inputs and the partitioned final merge's
  // positioned range writes must reproduce the serial output byte for
  // byte.
  PosixEnv posix;
  const std::string dir = twrs::testing::MakeTempDir();
  ASSERT_TWRS_OK(posix.CreateDirIfMissing(dir));
  WorkloadOptions wl;
  wl.num_records = 20000;
  wl.seed = 99;
  auto input = Drain(MakeWorkload(Dataset::kMixed, wl).get());

  std::string outputs[2];
  for (int i = 0; i < 2; ++i) {
    ExternalSortOptions options;
    options.memory_records = 512;
    options.twrs = TwoWayOptions::Recommended(512, 3);
    options.fan_in = 4;
    options.temp_dir = dir;
    options.block_bytes = 4096;
    if (i == 1) {
      options.parallel.worker_threads = 2;
      options.parallel.prefetch_blocks = 2;
      options.parallel.final_merge_threads = 2;
    }
    ExternalSorter sorter(&posix, options);
    outputs[i] = dir + (i == 0 ? "/out_serial" : "/out_pooled");
    VectorSource source(input);
    ExternalSortResult result;
    ASSERT_TWRS_OK(sorter.Sort(&source, outputs[i], &result));
    EXPECT_EQ(result.output_records, input.size());
  }

  std::vector<Key> serial, pooled;
  ASSERT_TWRS_OK(ReadAllRecords(&posix, outputs[0], &serial));
  ASSERT_TWRS_OK(ReadAllRecords(&posix, outputs[1], &pooled));
  EXPECT_TRUE(serial == pooled)
      << "serial and pooled sorts diverged on identical input";
  uint64_t count = 0;
  KeyChecksum checksum;
  ASSERT_TWRS_OK(VerifySortedFile(&posix, outputs[1], &count, &checksum));
  EXPECT_EQ(count, input.size());
  EXPECT_TRUE(checksum == ChecksumOf(input));
}

TEST(VerifySortedFileTest, TruncatedTailIsCorruption) {
  MemEnv env;
  // Two whole records followed by a torn half-record, as a crashed writer
  // would leave behind.
  std::unique_ptr<WritableFile> file;
  ASSERT_TWRS_OK(env.NewWritableFile("f", &file));
  uint8_t record[kRecordBytes];
  EncodeKey(1, record);
  ASSERT_TWRS_OK(file->Append(record, kRecordBytes));
  EncodeKey(2, record);
  ASSERT_TWRS_OK(file->Append(record, kRecordBytes));
  ASSERT_TWRS_OK(file->Append(record, kRecordBytes / 2));
  ASSERT_TWRS_OK(file->Close());
  EXPECT_TRUE(VerifySortedFile(&env, "f", nullptr, nullptr).IsCorruption());
}

}  // namespace
}  // namespace twrs
