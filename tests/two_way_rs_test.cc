#include "core/two_way_replacement_selection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <tuple>

#include "core/record_source.h"
#include "core/run_sink.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "workload/generators.h"

namespace twrs {
namespace {

using testing::Drain;
using testing::ExpectValidRuns;
using testing::GenerateRuns;

TwoWayOptions BaseOptions(size_t memory) {
  TwoWayOptions options = TwoWayOptions::Recommended(memory, /*seed=*/7);
  return options;
}

TEST(TwoWayOptionsTest, RecommendedConfiguration) {
  TwoWayOptions options = TwoWayOptions::Recommended(10000);
  EXPECT_EQ(options.memory_records, 10000u);
  EXPECT_TRUE(options.use_input_buffer);
  EXPECT_TRUE(options.use_victim_buffer);
  EXPECT_EQ(options.input_heuristic, InputHeuristic::kMean);
  EXPECT_EQ(options.output_heuristic, OutputHeuristic::kRandom);
  EXPECT_DOUBLE_EQ(options.buffer_fraction, 0.02);
  ASSERT_TWRS_OK(options.Validate());
  // 2% of 10000 = 200 buffer records, split evenly.
  EXPECT_EQ(options.TotalBufferRecords(), 200u);
  EXPECT_EQ(options.InputBufferRecords(), 100u);
  EXPECT_EQ(options.VictimBufferRecords(), 100u);
  EXPECT_EQ(options.HeapRecords(), 9800u);
}

TEST(TwoWayOptionsTest, SingleBufferTakesWholeAllocation) {
  TwoWayOptions options = BaseOptions(1000);
  options.use_input_buffer = false;
  EXPECT_EQ(options.InputBufferRecords(), 0u);
  EXPECT_EQ(options.VictimBufferRecords(), 20u);
  options.use_input_buffer = true;
  options.use_victim_buffer = false;
  EXPECT_EQ(options.InputBufferRecords(), 20u);
  EXPECT_EQ(options.VictimBufferRecords(), 0u);
}

TEST(TwoWayOptionsTest, NoBuffersMeansAllMemoryForHeaps) {
  TwoWayOptions options = BaseOptions(1000);
  options.use_input_buffer = false;
  options.use_victim_buffer = false;
  EXPECT_EQ(options.TotalBufferRecords(), 0u);
  EXPECT_EQ(options.HeapRecords(), 1000u);
}

TEST(TwoWayOptionsTest, EnabledBuffersGetAtLeastOneRecord) {
  TwoWayOptions options = BaseOptions(1000);
  options.buffer_fraction = 0.0002;  // rounds to 0 records
  EXPECT_GE(options.TotalBufferRecords(), 2u);
  EXPECT_GE(options.InputBufferRecords(), 1u);
  EXPECT_GE(options.VictimBufferRecords(), 1u);
}

TEST(TwoWayOptionsTest, ValidationCatchesBadConfigs) {
  TwoWayOptions options = BaseOptions(2);
  EXPECT_FALSE(options.Validate().ok());
  options = BaseOptions(1000);
  options.buffer_fraction = 1.5;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(TwoWayRsTest, EmptyInputProducesNoRuns) {
  TwoWayReplacementSelection twrs(BaseOptions(100));
  auto result = GenerateRuns(&twrs, {});
  EXPECT_TRUE(result.runs.empty());
}

TEST(TwoWayRsTest, SmallInputSingleSortedRun) {
  TwoWayReplacementSelection twrs(BaseOptions(100));
  auto result = GenerateRuns(&twrs, {9, 1, 8, 2, 7, 3});
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_EQ(result.runs[0], std::vector<Key>({1, 2, 3, 7, 8, 9}));
}

TEST(TwoWayRsTest, PaperWorkedExampleInput) {
  // §4.5's diverging input: descending 40,39,38,... interleaved with
  // ascending 50,51,52,... 2WRS should capture both trends in one run.
  std::vector<Key> input;
  for (int i = 0; i < 200; ++i) {
    input.push_back(40 - i);
    input.push_back(50 + i);
  }
  TwoWayOptions options = BaseOptions(22);
  options.buffer_fraction = 0.4;  // ~4 input + 4 victim, 14 heap (as §4.5)
  TwoWayReplacementSelection twrs(options);
  auto result = GenerateRuns(&twrs, input);
  ExpectValidRuns(result.runs, input);
  EXPECT_LE(result.runs.size(), 2u);
}

TEST(TwoWayRsTest, VictimBufferAbsorbsGapRecords) {
  // Diverging trends leave a gap; records landing inside it (44 in the
  // §4.5 example) must be absorbed by the victim buffer.
  std::vector<Key> input;
  for (int i = 0; i < 100; ++i) {
    input.push_back(40 - i);
    input.push_back(50 + i);
    if (i == 18) input.push_back(44);
  }
  TwoWayOptions options = BaseOptions(22);
  options.buffer_fraction = 0.4;
  TwoWayReplacementSelection twrs(options);
  VectorSource source(input);
  CollectingRunSink sink;
  RunGenStats stats;
  ASSERT_TWRS_OK(twrs.Generate(&source, &sink, &stats));
  ExpectValidRuns(sink.collected(), input);
  EXPECT_GT(stats.victim_records, 0u);
}

TEST(TwoWayRsTest, DivertRuleKeepsRandomHeuristicCorrect) {
  // The Random input heuristic scatters records across both heaps; the
  // divert rule must still deliver sorted runs.
  WorkloadOptions wl;
  wl.num_records = 5000;
  wl.seed = 11;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  TwoWayOptions options = BaseOptions(128);
  options.input_heuristic = InputHeuristic::kRandom;
  options.output_heuristic = OutputHeuristic::kRandom;
  TwoWayReplacementSelection twrs(options);
  auto result = GenerateRuns(&twrs, input);
  ExpectValidRuns(result.runs, input);
}

TEST(TwoWayRsTest, DuplicateHeavyInputReachesNextRunDivert) {
  // A stray strictly between the two streams' bounds and outside the victim
  // range goes to the next run (RouteStray's last branch). Uniform inputs
  // almost never leave such a stray; 8 distinct keys in a 16-record memory
  // with Random heuristics on both ends do (24, 31 and 19 times on seeds 1,
  // 2 and 3).
  for (uint64_t seed : {1, 2, 3}) {
    Random rng(seed);
    std::vector<Key> input(20000);
    for (Key& key : input) key = static_cast<Key>(rng.Uniform(8));
    TwoWayOptions options = TwoWayOptions::Recommended(16, seed);
    options.buffer_fraction = 0.2;
    options.input_heuristic = InputHeuristic::kRandom;
    options.output_heuristic = OutputHeuristic::kRandom;
    TwoWayReplacementSelection twrs(options);
    VectorSource source(input);
    CollectingRunSink sink;  // rejects any out-of-order stream append
    RunGenStats stats;
    ASSERT_TWRS_OK(twrs.Generate(&source, &sink, &stats));
    EXPECT_GT(stats.diverted_next_run, 0u) << "seed=" << seed;
    std::vector<Key> output;
    for (const std::vector<Key>& run : sink.collected()) {
      EXPECT_TRUE(std::is_sorted(run.begin(), run.end())) << "seed=" << seed;
      output.insert(output.end(), run.begin(), run.end());
    }
    std::sort(output.begin(), output.end());
    std::sort(input.begin(), input.end());
    EXPECT_EQ(output, input) << "seed=" << seed;
  }
}

TEST(TwoWayRsTest, SameSeedIsDeterministic) {
  WorkloadOptions wl;
  wl.num_records = 2000;
  wl.seed = 5;
  auto input = Drain(MakeWorkload(Dataset::kRandom, wl).get());
  TwoWayReplacementSelection a(BaseOptions(100));
  TwoWayReplacementSelection b(BaseOptions(100));
  auto ra = GenerateRuns(&a, input);
  auto rb = GenerateRuns(&b, input);
  EXPECT_EQ(ra.runs, rb.runs);
}

TEST(TwoWayRsTest, StatsCountersAreConsistent) {
  WorkloadOptions wl;
  wl.num_records = 4000;
  wl.seed = 9;
  auto input = Drain(MakeWorkload(Dataset::kMixed, wl).get());
  TwoWayReplacementSelection twrs(BaseOptions(200));
  VectorSource source(input);
  CollectingRunSink sink;
  RunGenStats stats;
  ASSERT_TWRS_OK(twrs.Generate(&source, &sink, &stats));
  EXPECT_EQ(stats.total_records, input.size());
  EXPECT_EQ(stats.num_runs(), sink.collected().size());
  EXPECT_GT(stats.victim_records, 0u);  // mixed input exercises the victim
}

// Every combination of input heuristic, output heuristic, buffer setup and
// dataset must produce sorted runs that partition the input — the paper's
// 2160-configuration factorial experiment relies on all of them being
// correct (§5.2).
using ConfigParam = std::tuple<int, int, int, int>;  // in, out, buffers, ds

class TwoWayConfigTest : public ::testing::TestWithParam<ConfigParam> {};

TEST_P(TwoWayConfigTest, RunsAreSortedPartitions) {
  const auto [in_h, out_h, buffers, dataset] = GetParam();
  WorkloadOptions wl;
  wl.num_records = 3000;
  wl.seed = 21;
  wl.sections = 10;
  auto input = Drain(MakeWorkload(static_cast<Dataset>(dataset), wl).get());

  TwoWayOptions options = BaseOptions(150);
  options.input_heuristic = static_cast<InputHeuristic>(in_h);
  options.output_heuristic = static_cast<OutputHeuristic>(out_h);
  options.use_input_buffer = buffers == 0 || buffers == 1;
  options.use_victim_buffer = buffers == 1 || buffers == 2;
  TwoWayReplacementSelection twrs(options);
  auto result = GenerateRuns(&twrs, input);
  ExpectValidRuns(result.runs, input);
  EXPECT_EQ(result.stats.total_records, input.size());
}

INSTANTIATE_TEST_SUITE_P(
    HeuristicSweep, TwoWayConfigTest,
    ::testing::Combine(::testing::Range(0, kNumInputHeuristics),
                       ::testing::Range(0, kNumOutputHeuristics),
                       ::testing::Values(1),  // both buffers
                       ::testing::Values(static_cast<int>(Dataset::kRandom),
                                         static_cast<int>(Dataset::kMixed))));

INSTANTIATE_TEST_SUITE_P(
    BufferSetupSweep, TwoWayConfigTest,
    ::testing::Combine(::testing::Values(static_cast<int>(InputHeuristic::kMean)),
                       ::testing::Values(static_cast<int>(OutputHeuristic::kRandom)),
                       ::testing::Values(0, 1, 2),  // input only, both, victim only
                       ::testing::Range(0, kNumDatasets)));

// Heap capacity: 2WRS reads one replacement for every record that leaves
// the heaps (to a stream or to the victim buffer, including the strays the
// separation sweep hands to the victim buffer), so every run starts with
// full heaps while input remains. Observed from outside: the source hands
// out one record per call, so at a run start the heaps hold the records
// handed out, minus those appended, minus the input buffer's lookahead
// (capacity - 1 between reads). The victim buffer is empty there: the
// previous run's final flush emptied it.
class OneAtATimeSource : public RecordSource {
 public:
  explicit OneAtATimeSource(std::vector<Key> keys) : keys_(std::move(keys)) {}

  Status NextBatch(Key* out, size_t, size_t* got) override {
    *got = handed_ < keys_.size() ? 1 : 0;
    if (*got == 1) out[0] = keys_[handed_++];
    return Status::OK();
  }

  bool exhausted() const { return handed_ == keys_.size(); }
  uint64_t handed() const { return handed_; }

 private:
  std::vector<Key> keys_;
  uint64_t handed_ = 0;
};

class RunStartProbe : public CountingRunSink {
 public:
  RunStartProbe(const OneAtATimeSource* source, uint64_t lookahead)
      : source_(source), lookahead_(lookahead) {}

  Status BeginRun() override {
    if (started_ && !source_->exhausted()) {
      heap_at_run_start.push_back(source_->handed() - appended_ - lookahead_);
    }
    started_ = true;
    return CountingRunSink::BeginRun();
  }
  Status AppendBatch(RunStream stream, const Key* keys, size_t n) override {
    appended_ += n;
    return CountingRunSink::AppendBatch(stream, keys, n);
  }

  std::vector<uint64_t> heap_at_run_start;  ///< runs 2.. with input left

 private:
  const OneAtATimeSource* source_;
  uint64_t lookahead_;
  bool started_ = false;
  uint64_t appended_ = 0;
};

// Returns how many run starts (while input remained) found the heaps short.
size_t ShortRunStarts(InputHeuristic heuristic, Dataset dataset,
                      size_t memory, uint64_t seed) {
  WorkloadOptions wl;
  wl.num_records = 30000;
  wl.sections = 8;
  wl.seed = seed;
  TwoWayOptions options = TwoWayOptions::Recommended(memory, seed);
  options.input_heuristic = heuristic;
  OneAtATimeSource source(Drain(MakeWorkload(dataset, wl).get()));
  const size_t window = options.InputBufferRecords();
  RunStartProbe sink(&source, window > 0 ? window - 1 : 0);
  const Status s =
      TwoWayReplacementSelection(options).Generate(&source, &sink, nullptr);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(sink.heap_at_run_start.size(), 1u);
  size_t short_starts = 0;
  for (uint64_t held : sink.heap_at_run_start) {
    short_starts += held != options.HeapRecords();
  }
  return short_starts;
}

TEST(TwoWayCapacityTest, HeapsAreFullAtEveryRunStartWhileInputRemains) {
  for (int in = 0; in < kNumInputHeuristics; ++in) {
    const auto heuristic = static_cast<InputHeuristic>(in);
    for (const Dataset dataset : {Dataset::kRandom, Dataset::kAlternating}) {
      for (const size_t memory : {64, 1000, 4096}) {
        for (const uint64_t seed : {1, 2, 3}) {
          EXPECT_EQ(ShortRunStarts(heuristic, dataset, memory, seed), 0u)
              << InputHeuristicName(heuristic) << " " << DatasetName(dataset)
              << " memory=" << memory << " seed=" << seed;
        }
      }
    }
  }
}

// Golden streams: the exact sequence of (run boundary, RunStream, key) events
// 2WRS emits, hashed per configuration. The constants pin the algorithm's
// behaviour, not just its correctness, so a change to the heap layout or
// the engine that alters any emission order fails here. Input heuristic
// Balancing is excluded: its run-start migration pops a layout-dependent
// leaf, so only its conservation and run counts are pinned (below).
class HashingRunSink : public CollectingRunSink {
 public:
  Status BeginRun() override {
    Feed(kBeginMarker);
    return CollectingRunSink::BeginRun();
  }
  Status AppendBatch(RunStream stream, const Key* keys, size_t n) override {
    for (size_t i = 0; i < n; ++i) {
      Feed(static_cast<uint64_t>(stream));
      Feed(keys[i]);
    }
    return CollectingRunSink::AppendBatch(stream, keys, n);
  }
  Status EndRun() override {
    Feed(kEndMarker);
    return CollectingRunSink::EndRun();
  }

  uint64_t hash() const { return hash_; }

 private:
  static constexpr uint64_t kBeginMarker = 0xb0b0b0b0b0b0b0b0ULL;
  static constexpr uint64_t kEndMarker = 0xe0e0e0e0e0e0e0e0ULL;

  // SplitMix64 finalizer over the running state: order-sensitive.
  void Feed(uint64_t v) {
    uint64_t z = hash_ ^ (v + 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    hash_ = z ^ (z >> 31);
  }

  uint64_t hash_ = 0;
};

constexpr std::array<size_t, 3> kGoldenMemory = {64, 1000, 4096};
constexpr int kGoldenInputHeuristics = 5;  // Random .. Useful
constexpr uint64_t kGoldenRecords = 50000;

// kGoldenHash[dataset][input heuristic][output heuristic][memory].
constexpr uint64_t kGoldenHash[kNumDatasets][kGoldenInputHeuristics]
                              [kNumOutputHeuristics][kGoldenMemory.size()] = {
    {  // sorted
        {  // Random
            {0x2fa986e8cb55829fULL, 0x4b8d53380d4606bfULL, 0xca48115f0c3837f8ULL},
            {0x844f498d9f98152fULL, 0x1541bb7ecdd0ec70ULL, 0x640e4e0ef3e82c59ULL},
            {0x2fa986e8cb55829fULL, 0x4b8d53380d4606bfULL, 0xd254338e0e250f3bULL},
            {0xb38767b0a8b31c06ULL, 0xe9230822e630d491ULL, 0xc52a87fec6ed83feULL},
            {0x0617807839705a74ULL, 0x4b8d53380d4606bfULL, 0xe96e1e9779fe3079ULL},
        },
        {  // Alternate
            {0x707f68d94217e90eULL, 0xd5377b8cda497de2ULL, 0x91036bb05c05f496ULL},
            {0x4c7785a5b1aaba68ULL, 0x930bcd66832bf865ULL, 0xb60e5ea60df53085ULL},
            {0x060007a5876bd77eULL, 0x04ea4307b9c670aeULL, 0xea9678745c30ea89ULL},
            {0x3bedd0697d3e1ba5ULL, 0xf7e0981b4124bd7fULL, 0xec21ee6f3c67025bULL},
            {0x2056fdc65d42781cULL, 0x8485546db2e01825ULL, 0x7fc54f460c6a967aULL},
        },
        {  // Mean
            {0x3ea17c716d0c3e68ULL, 0x9b6e5cf98cf18ca4ULL, 0x0336725522ffe77dULL},
            {0x3ea17c716d0c3e68ULL, 0xdedded580e03c10dULL, 0x78e01059f45fecb8ULL},
            {0x3ea17c716d0c3e68ULL, 0x03d3e734cf53f792ULL, 0x899a27cae0e1f9f4ULL},
            {0x6a225fc95adfaac5ULL, 0xc677b2b11b11d4f9ULL, 0x2d7ea9f85e94b414ULL},
            {0x3ea17c716d0c3e68ULL, 0x69511b2eda32a394ULL, 0x50df6b8462860f7bULL},
        },
        {  // Median
            {0x61286af6630bb428ULL, 0x9d911196c25bb82cULL, 0xbc1a59edfa05bd49ULL},
            {0x4f1d10f0dce5e0d9ULL, 0x4ff67d097546047eULL, 0xb997919fcb87622fULL},
            {0x99ab6272c914da82ULL, 0x3466215c782abbccULL, 0x4ad0fdd0431f574bULL},
            {0xf75e01fa18e3d78aULL, 0x75b861aafff8cc5dULL, 0x4fe5be8acaad66d1ULL},
            {0x9d1f20404db983f9ULL, 0xd375a056dfade0ddULL, 0x2ae26dda27d7c32cULL},
        },
        {  // Useful
            {0x2fa986e8cb55829fULL, 0x4b8d53380d4606bfULL, 0xca48115f0c3837f8ULL},
            {0x844f498d9f98152fULL, 0x1541bb7ecdd0ec70ULL, 0x640e4e0ef3e82c59ULL},
            {0x2fa986e8cb55829fULL, 0x4b8d53380d4606bfULL, 0xd254338e0e250f3bULL},
            {0xb38767b0a8b31c06ULL, 0xe9230822e630d491ULL, 0xc52a87fec6ed83feULL},
            {0x0617807839705a74ULL, 0x4b8d53380d4606bfULL, 0xe96e1e9779fe3079ULL},
        },
    },
    {  // reverse-sorted
        {  // Random
            {0x94315f7411547e70ULL, 0xdcb8d2ffc18ea9f3ULL, 0x6b0df945a89f380bULL},
            {0x8900d9be9a93e57eULL, 0xac29ab4bc9133dacULL, 0xfd2f91f53df9b368ULL},
            {0x65d0a27b20111047ULL, 0x953f6c9730fb1fd9ULL, 0x11fdbe985813444cULL},
            {0x8900d9be9a93e57eULL, 0x5b073637cb95bab5ULL, 0x39366ac8b2a07b19ULL},
            {0x7205f639e97d3ec6ULL, 0x02c3ebdeb8d4b645ULL, 0x64f98a49ff595b15ULL},
        },
        {  // Alternate
            {0x8900d9be9a93e57eULL, 0x51f467f5b4afbbadULL, 0xd73a1239af689b4aULL},
            {0x8900d9be9a93e57eULL, 0x54369222669b7a6eULL, 0x7422069471ee8688ULL},
            {0x8900d9be9a93e57eULL, 0x06b5339753ed35ddULL, 0x5a0a29636a3c5ff0ULL},
            {0x8900d9be9a93e57eULL, 0x6e8b6d1055dcf863ULL, 0xf36330c916081d5dULL},
            {0x8900d9be9a93e57eULL, 0x7bd4702ee245864dULL, 0x98705a489d954125ULL},
        },
        {  // Mean
            {0x8900d9be9a93e57eULL, 0xe676fb0eddb017e1ULL, 0x846c3e9ce392b6deULL},
            {0x8900d9be9a93e57eULL, 0x2be71b38e8d80678ULL, 0xc4ff0c3753e8df06ULL},
            {0x8900d9be9a93e57eULL, 0x485bbf613ff59ee8ULL, 0xa6599e1c10268945ULL},
            {0x8900d9be9a93e57eULL, 0xdc19ebfbbefcaa01ULL, 0x8d89618df30139a7ULL},
            {0x8900d9be9a93e57eULL, 0xead6d216e30e4431ULL, 0x61632ff7e08e385bULL},
        },
        {  // Median
            {0x8900d9be9a93e57eULL, 0x977b9a544ccae036ULL, 0x6ee80a83cc8b24c0ULL},
            {0x8900d9be9a93e57eULL, 0xbac05222cdd6cc3aULL, 0x1834f9755dc13168ULL},
            {0x8900d9be9a93e57eULL, 0x17c41744e2689c34ULL, 0x27a73f61eccaa15aULL},
            {0x8900d9be9a93e57eULL, 0xb51b4b555373ac7eULL, 0xb9bb38ba5bd27cebULL},
            {0x8900d9be9a93e57eULL, 0x53f88d522a4dce40ULL, 0xa380a2a7dda64804ULL},
        },
        {  // Useful
            {0x94315f7411547e70ULL, 0xdcb8d2ffc18ea9f3ULL, 0x6b0df945a89f380bULL},
            {0x8900d9be9a93e57eULL, 0xac29ab4bc9133dacULL, 0xfd2f91f53df9b368ULL},
            {0x65d0a27b20111047ULL, 0x953f6c9730fb1fd9ULL, 0x11fdbe985813444cULL},
            {0x8900d9be9a93e57eULL, 0x5b073637cb95bab5ULL, 0x39366ac8b2a07b19ULL},
            {0x7205f639e97d3ec6ULL, 0x02c3ebdeb8d4b645ULL, 0x64f98a49ff595b15ULL},
        },
    },
    {  // alternating
        {  // Random
            {0x3c32d169efb27ff1ULL, 0xa800e90250817a45ULL, 0x2cfe8f00b45f55caULL},
            {0x74c2ceb32711a35cULL, 0x6d1b28fa059d57b2ULL, 0x3686d67dfd80bc7fULL},
            {0xc92b62ad65686c17ULL, 0xcef6a88ffe56e2ceULL, 0x2eaac5f94f72bd92ULL},
            {0x85659aedd3924134ULL, 0x988a78f5d4eab30aULL, 0x710bb9cfdb6f6a89ULL},
            {0x93dfd146410fc84fULL, 0x63b182075ff4f023ULL, 0xe2aaed010371b40dULL},
        },
        {  // Alternate
            {0xab4b6f547fda474bULL, 0x9c6dd32fd740c9c5ULL, 0x2e264ca321dead4bULL},
            {0x83a13331d069dc46ULL, 0x6ad687606eb99e2cULL, 0xbedb2942cf5c5873ULL},
            {0x5bae51509de8d24aULL, 0xfa9fba92f8d8f38aULL, 0x34d32e3c24da1038ULL},
            {0x5f46caf150affca7ULL, 0xcb8df4fda4fa9f3aULL, 0x47a75b1565427633ULL},
            {0xb089363518900aacULL, 0x09a7f42e85f89056ULL, 0x0b3df875267f4db7ULL},
        },
        {  // Mean
            {0x93fd6b41e1eb24f3ULL, 0x1df0640e0cad936cULL, 0xf6ad9ba82a204ffaULL},
            {0xfb246a1d34dce2dcULL, 0xc9654b4823f4b92bULL, 0x62634c02df1f9ab3ULL},
            {0x236410512f3f3cb9ULL, 0x8179bb40adcb3d92ULL, 0x8cafe56a65e8f324ULL},
            {0x720b6d7939fcbd5dULL, 0xdcf532054ad91fb2ULL, 0x96967564ec331bc7ULL},
            {0x91d136d55c469735ULL, 0xf380d6c20b7d36e7ULL, 0x506d2b5b435b0d83ULL},
        },
        {  // Median
            {0x13a7ecc5d0f64a56ULL, 0xc5ef71c019514b37ULL, 0xc3a363da421ba6b7ULL},
            {0xd4c21155ac080337ULL, 0xae646c29adfac0cfULL, 0x39ebeb31bfccbd98ULL},
            {0xb8aca3e9d3a52cc2ULL, 0x49abd96ffaac8f22ULL, 0x0d9fd021dac0fd36ULL},
            {0x699d3f5e95ddeb01ULL, 0xb4d729434e99ce18ULL, 0xe2f782b163711308ULL},
            {0xdd94b90a4c8fd735ULL, 0xa0a1b97dc7014b18ULL, 0x3f45c3eed86cc50eULL},
        },
        {  // Useful
            {0x7be003a91d384c81ULL, 0xc2cd9bde44d742dcULL, 0xc60a062cc8bdc1c9ULL},
            {0xc10ec34f68c52b4eULL, 0xe6e3262355393064ULL, 0x8364412e7e9c9060ULL},
            {0x3f51ddc5f2c1f161ULL, 0xc5d5435ff28af2acULL, 0x7994d2be12f77520ULL},
            {0xabb27c787cc69440ULL, 0x661908354edd24e0ULL, 0xb7032395b4fe0cccULL},
            {0xeb3c5793cddd8c22ULL, 0x6e79d30047cf1087ULL, 0xde28740035a5feb3ULL},
        },
    },
    {  // random
        {  // Random
            {0xbbbae4296b6c4b69ULL, 0xd8dc6f1d093f2d4dULL, 0xc052c0f372aea9c3ULL},
            {0x9519559995f04767ULL, 0x00386c25febd0110ULL, 0xb2da6e1fc42676d7ULL},
            {0xada693c9a1474d6cULL, 0x338b9d744678c0c8ULL, 0xfd377ddb8eabb916ULL},
            {0x57579cd9fb9d6c6bULL, 0x3ad5154295cee0e3ULL, 0xe360473c3b84e788ULL},
            {0x0797526e75be8284ULL, 0x2ae1f8389db60db8ULL, 0x3aff4a13da3f8f77ULL},
        },
        {  // Alternate
            {0x99dfb479847a7403ULL, 0x43f826629d2fffbbULL, 0xc259df911a149440ULL},
            {0xa94fe5922202e7ecULL, 0xcf855af17e78c3a3ULL, 0x2cb23649a2a79b28ULL},
            {0xb33deda2aa87def2ULL, 0x8f294eb0bef17b44ULL, 0xe7fcf0f62dfb86efULL},
            {0x7cc9a339bd71ba72ULL, 0xc35330e0191c9378ULL, 0x05e15ef38282f478ULL},
            {0xd2a907a1d9721cb7ULL, 0xaaa76540fd5b8093ULL, 0x42445bfbd57b8d48ULL},
        },
        {  // Mean
            {0x7fb0bb61cb3058d8ULL, 0x3168acaca7a8e7d3ULL, 0x106803c25422927aULL},
            {0xe3ba0340b86ab54dULL, 0x380879c4841b215fULL, 0x29687e689d4def7aULL},
            {0x4bbc4aff01b8fbb6ULL, 0x85c633355d58c717ULL, 0xe852b170f6c615f7ULL},
            {0x3da5028f7fcc8e78ULL, 0x340d0b5884f9efc0ULL, 0xe60ec1d2110c5682ULL},
            {0xb78253b1acf25634ULL, 0xe78e2cd254a50d08ULL, 0x78f1d4dcfe20bea1ULL},
        },
        {  // Median
            {0xbd8a1307c5bd752fULL, 0xd92795f5484e093aULL, 0xe830d0d3a2bf7d1fULL},
            {0x26278f44dfdd562eULL, 0x7a27d1793e5a39bdULL, 0xe9087ce985815e37ULL},
            {0x9b79b939344bc9f3ULL, 0xbed5e653c0f0729dULL, 0xd950f002cee8bc83ULL},
            {0xa4be2ebaf193c94fULL, 0x21f07f3a1933c0beULL, 0x844090e22c0522e9ULL},
            {0x9fc06b27d7e44f68ULL, 0x593ca5ef39ea26f2ULL, 0x36c20f99682bae18ULL},
        },
        {  // Useful
            {0xda9738868d789d10ULL, 0xbcc17a1bb7cf14d8ULL, 0x445770714293bef8ULL},
            {0x96344e961e8621acULL, 0xee2dacce6f16ba07ULL, 0x6a3e224867afb030ULL},
            {0xe6bf00e2e39a4fdaULL, 0xd700bcea217e9b2cULL, 0x308af111b700549eULL},
            {0x910b0f02f3328035ULL, 0x8ec0c2a0d7a70302ULL, 0x35af8396f850c60bULL},
            {0x1eb7634cb8ee79b4ULL, 0xb1925d2ac818d2caULL, 0xdd091e9cb1ec1328ULL},
        },
    },
    {  // mixed
        {  // Random
            {0x883c723cdf0b4306ULL, 0xac09cdc0b930296bULL, 0x49b826a17fe4384bULL},
            {0x0297200590e6955eULL, 0xd4c6d2e5a18e4ddbULL, 0x9820e040f83bc791ULL},
            {0x04bbe0f12dca1b8cULL, 0xfcd0445706ddd5adULL, 0x804a5e4d1081e275ULL},
            {0x8ede11b14dafc03eULL, 0x65dd3030ba42437eULL, 0xfe4bea0a097efdbdULL},
            {0x4a827d027e74e215ULL, 0x2f337e995cdfdef4ULL, 0xe15c1127af0e7369ULL},
        },
        {  // Alternate
            {0xba448c7f61b4663aULL, 0xfa0ee8fe1bbb6f13ULL, 0x233142b62a26a51dULL},
            {0x53a87f03d8020246ULL, 0xa96c3abccc19ed1fULL, 0xd6f5b4b1eacc8e0aULL},
            {0x9a97741e0fa30174ULL, 0xe3d99b90fcae2c90ULL, 0xe8f1907808e77253ULL},
            {0x20a33a2142a346aaULL, 0x92362157af1f8f64ULL, 0x381b0766a5107d02ULL},
            {0x069dc0c6b0eae43bULL, 0xbc92e47634e2eeabULL, 0xc17d929ba3c598b0ULL},
        },
        {  // Mean
            {0x48bfee397ed4dd05ULL, 0x4888fc46d8ccf97bULL, 0x1698433f4603b794ULL},
            {0x5e3dc29fde8c69faULL, 0xc83de9c4078c6132ULL, 0x3f51a3b3f0020346ULL},
            {0x15a186932ccab435ULL, 0x281bd4ac49849b0bULL, 0xed9740eab542cf8aULL},
            {0xaf49e2ebec0460feULL, 0x4f34c59edd14a3f0ULL, 0xb13fcf74995ee67bULL},
            {0x6f4d1d0ed2180686ULL, 0x94242e085e34163dULL, 0x383d968eaeb4e504ULL},
        },
        {  // Median
            {0x8325bb3d882e7520ULL, 0x4888fc46d8ccf97bULL, 0xbd14c398addf70bbULL},
            {0x032bb46908423dfaULL, 0xc83de9c4078c6132ULL, 0xd3d3ef11a1a0e949ULL},
            {0x9a97741e0fa30174ULL, 0x281bd4ac49849b0bULL, 0xacc3798095374663ULL},
            {0xf86068a1e2622d77ULL, 0x4f34c59edd14a3f0ULL, 0x826d06b21c77ac3eULL},
            {0xd80ecb8f0fb7ba89ULL, 0x94242e085e34163dULL, 0x626f45eca49ca0ceULL},
        },
        {  // Useful
            {0x883c723cdf0b4306ULL, 0xac09cdc0b930296bULL, 0x49b826a17fe4384bULL},
            {0x0297200590e6955eULL, 0xd4c6d2e5a18e4ddbULL, 0x9820e040f83bc791ULL},
            {0x04bbe0f12dca1b8cULL, 0xfcd0445706ddd5adULL, 0x804a5e4d1081e275ULL},
            {0x8ede11b14dafc03eULL, 0x65dd3030ba42437eULL, 0xfe4bea0a097efdbdULL},
            {0x4a827d027e74e215ULL, 0x2f337e995cdfdef4ULL, 0xe15c1127af0e7369ULL},
        },
    },
    {  // mixed-imbalanced
        {  // Random
            {0xb3034f11c275c0afULL, 0x8934c106c993898dULL, 0x84936b8c2f8c833fULL},
            {0x25e707ffd002d9b9ULL, 0xe69edfaba0915f31ULL, 0x01fa43a8be3a0944ULL},
            {0x947da594f7fd8db9ULL, 0xbc96ead128440c15ULL, 0x0d3549fd0ebf71b7ULL},
            {0xfd6d6994c4c99a0cULL, 0x537aa92792ea0f70ULL, 0xbdfe3cf4305bee5eULL},
            {0x988a1f3e44a3916bULL, 0xddbc673ef3037c88ULL, 0xd8ad33559c9d86e9ULL},
        },
        {  // Alternate
            {0xe81e05a9109ef4f5ULL, 0x31def04fa61f4550ULL, 0xffbd407cb3ecb091ULL},
            {0x13bce2428c6afaeaULL, 0x9e7eec7e02d7314cULL, 0xa9e1ad802e18bad8ULL},
            {0xcf1a80494cb41da7ULL, 0x95d4ef12d187fe0bULL, 0xc769c778f7500b23ULL},
            {0x8b87bc231e558a56ULL, 0xfad5c84a261738d4ULL, 0xef50b718578746a4ULL},
            {0xf8ccfaa274e8d156ULL, 0x328c0b1e424f3037ULL, 0xbb04ebde3c0f43d2ULL},
        },
        {  // Mean
            {0xd80183ad2e2fbcf8ULL, 0x110c7167d4a8bee0ULL, 0x5aa663c78c96d5a8ULL},
            {0x631cec9d96da3f73ULL, 0x68a16b1f4c863eafULL, 0x7cf033805930b35dULL},
            {0x27f3d6684f2b6f17ULL, 0xe2a547dd993d4116ULL, 0x5093ac4d2a572809ULL},
            {0xe1fb2457e08d3752ULL, 0x7f76811efa9f77a6ULL, 0x694727f35712f637ULL},
            {0x24288a7404fd0b49ULL, 0x8a31339f979b55eaULL, 0xede790a0a2d57b58ULL},
        },
        {  // Median
            {0x583d6bce18dab5b4ULL, 0xaaa1b731c902d64fULL, 0xe324217e920d8f47ULL},
            {0x4d968240275ea875ULL, 0x5f3ef8768e1a7746ULL, 0xeda896e556b179c4ULL},
            {0xcf1a80494cb41da7ULL, 0xd52e57e2f7496ea4ULL, 0x492e8240850de2b0ULL},
            {0xe98149138f953e3bULL, 0xc3ed30f4bfe401d3ULL, 0x6a71816c40b5a3c8ULL},
            {0xf8ccfaa274e8d156ULL, 0x39bf1abcd00a76fdULL, 0x32fd36fe3ed3c638ULL},
        },
        {  // Useful
            {0xb3034f11c275c0afULL, 0x8934c106c993898dULL, 0x84936b8c2f8c833fULL},
            {0x25e707ffd002d9b9ULL, 0xe69edfaba0915f31ULL, 0x01fa43a8be3a0944ULL},
            {0x947da594f7fd8db9ULL, 0xbc96ead128440c15ULL, 0x0d3549fd0ebf71b7ULL},
            {0xfd6d6994c4c99a0cULL, 0x537aa92792ea0f70ULL, 0xbdfe3cf4305bee5eULL},
            {0x988a1f3e44a3916bULL, 0xddbc673ef3037c88ULL, 0xd8ad33559c9d86e9ULL},
        },
    },
};

// Runs per configuration under the Balancing input heuristic,
// [dataset][output heuristic][memory].
constexpr uint64_t kBalancingRuns[kNumDatasets][kNumOutputHeuristics]
                                 [kGoldenMemory.size()] = {
    {  // sorted
        {1, 1, 1},  // Random
        {1, 1, 1},  // Alternate
        {1, 1, 1},  // Useful
        {1, 1, 1},  // Balancing
        {1, 1, 1},  // MinDistance
    },
    {  // reverse-sorted
        {1, 1, 1},  // Random
        {1, 1, 1},  // Alternate
        {1, 1, 1},  // Useful
        {1, 1, 1},  // Balancing
        {1, 1, 1},  // MinDistance
    },
    {  // alternating
        {50, 27, 7},  // Random
        {50, 27, 7},  // Alternate
        {50, 26, 8},  // Useful
        {50, 28, 8},  // Balancing
        {50, 28, 7},  // MinDistance
    },
    {  // random
        {454, 32, 9},  // Random
        {398, 33, 9},  // Alternate
        {438, 31, 8},  // Useful
        {430, 29, 8},  // Balancing
        {447, 31, 9},  // MinDistance
    },
    {  // mixed
        {1, 1, 1},  // Random
        {1, 1, 1},  // Alternate
        {1, 1, 1},  // Useful
        {1, 1, 1},  // Balancing
        {1, 1, 1},  // MinDistance
    },
    {  // mixed-imbalanced
        {1, 1, 1},  // Random
        {1, 1, 1},  // Alternate
        {1, 1, 1},  // Useful
        {1, 1, 1},  // Balancing
        {1, 1, 1},  // MinDistance
    },
};

struct GoldenResult {
  uint64_t hash = 0;
  std::vector<std::vector<Key>> runs;
};

GoldenResult RunGolden(const std::vector<Key>& input, InputHeuristic in,
                       OutputHeuristic out, size_t memory) {
  TwoWayOptions options = TwoWayOptions::Recommended(memory, /*seed=*/1);
  options.input_heuristic = in;
  options.output_heuristic = out;
  TwoWayReplacementSelection twrs(options);
  VectorSource source(input);
  HashingRunSink sink;
  const Status s = twrs.Generate(&source, &sink, nullptr);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return GoldenResult{sink.hash(), sink.collected()};
}

std::vector<Key> GoldenInput(int dataset) {
  WorkloadOptions wl;
  wl.num_records = kGoldenRecords;
  wl.seed = 1;
  return Drain(MakeWorkload(static_cast<Dataset>(dataset), wl).get());
}

class TwoWayGoldenTest : public ::testing::TestWithParam<int> {};

TEST_P(TwoWayGoldenTest, StreamsMatchRecordedHashes) {
  const int dataset = GetParam();
  const std::vector<Key> input = GoldenInput(dataset);
  for (int in = 0; in < kGoldenInputHeuristics; ++in) {
    for (int out = 0; out < kNumOutputHeuristics; ++out) {
      for (size_t m = 0; m < kGoldenMemory.size(); ++m) {
        SCOPED_TRACE(::testing::Message()
                     << DatasetName(static_cast<Dataset>(dataset)) << " in="
                     << InputHeuristicName(static_cast<InputHeuristic>(in))
                     << " out="
                     << OutputHeuristicName(static_cast<OutputHeuristic>(out))
                     << " memory=" << kGoldenMemory[m]);
        const GoldenResult got =
            RunGolden(input, static_cast<InputHeuristic>(in),
                      static_cast<OutputHeuristic>(out), kGoldenMemory[m]);
        EXPECT_EQ(got.hash, kGoldenHash[dataset][in][out][m]);
      }
    }
  }
}

TEST_P(TwoWayGoldenTest, BalancingConservesRecordsAndRunCounts) {
  const int dataset = GetParam();
  const std::vector<Key> input = GoldenInput(dataset);
  for (int out = 0; out < kNumOutputHeuristics; ++out) {
    for (size_t m = 0; m < kGoldenMemory.size(); ++m) {
      SCOPED_TRACE(::testing::Message()
                   << DatasetName(static_cast<Dataset>(dataset)) << " out="
                   << OutputHeuristicName(static_cast<OutputHeuristic>(out))
                   << " memory=" << kGoldenMemory[m]);
      const GoldenResult got =
          RunGolden(input, InputHeuristic::kBalancing,
                    static_cast<OutputHeuristic>(out), kGoldenMemory[m]);
      ExpectValidRuns(got.runs, input);
      EXPECT_EQ(got.runs.size(), kBalancingRuns[dataset][out][m]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, TwoWayGoldenTest,
                         ::testing::Range(0, kNumDatasets));

// Golden streams at a memory 16x the largest above: each side's heap holds
// tens of thousands of keys, far beyond any cache, so a change to how
// DoubleHeap stores a large heap is pinned too. Each entry runs
// kLargeGoldenRecords records at kLargeGoldenMemory.
constexpr size_t kLargeGoldenMemory = 65536;
constexpr uint64_t kLargeGoldenRecords = 300000;

struct LargeGolden {
  Dataset dataset;
  InputHeuristic in;
  OutputHeuristic out;
  uint64_t hash;
};

constexpr LargeGolden kLargeGoldens[] = {
    {Dataset::kRandom, InputHeuristic::kMean, OutputHeuristic::kRandom,
     0xc7465a82edbee59cULL},
    {Dataset::kRandom, InputHeuristic::kMean, OutputHeuristic::kMinDistance,
     0x743596b92282d3c7ULL},
    {Dataset::kRandom, InputHeuristic::kRandom, OutputHeuristic::kRandom,
     0xd39104b0f6a5572cULL},
    {Dataset::kRandom, InputHeuristic::kRandom, OutputHeuristic::kMinDistance,
     0x21e5f6da4000981aULL},
    {Dataset::kAlternating, InputHeuristic::kMean, OutputHeuristic::kRandom,
     0x7a9947bcbde45b2fULL},
    {Dataset::kAlternating, InputHeuristic::kMean,
     OutputHeuristic::kMinDistance, 0xff6defc491e880f9ULL},
    {Dataset::kAlternating, InputHeuristic::kRandom, OutputHeuristic::kRandom,
     0x4f7b99aca54f950cULL},
    {Dataset::kAlternating, InputHeuristic::kRandom,
     OutputHeuristic::kMinDistance, 0x70ce13d06d399248ULL},
    {Dataset::kMixed, InputHeuristic::kMean, OutputHeuristic::kRandom,
     0x3315b44be0115a12ULL},
    {Dataset::kMixed, InputHeuristic::kMean, OutputHeuristic::kMinDistance,
     0x148f75f38d8d623fULL},
    {Dataset::kMixed, InputHeuristic::kRandom, OutputHeuristic::kRandom,
     0x1d81405b42228b35ULL},
    {Dataset::kMixed, InputHeuristic::kRandom, OutputHeuristic::kMinDistance,
     0x64ee0ae172929517ULL},
};

TEST(TwoWayLargeGoldenTest, StreamsMatchRecordedHashes) {
  WorkloadOptions wl;
  wl.num_records = kLargeGoldenRecords;
  wl.seed = 1;
  for (const LargeGolden& g : kLargeGoldens) {
    SCOPED_TRACE(::testing::Message()
                 << DatasetName(g.dataset) << " in="
                 << InputHeuristicName(g.in)
                 << " out=" << OutputHeuristicName(g.out));
    const std::vector<Key> input = Drain(MakeWorkload(g.dataset, wl).get());
    const GoldenResult got = RunGolden(input, g.in, g.out, kLargeGoldenMemory);
    ExpectValidRuns(got.runs, input);
    EXPECT_EQ(got.hash, g.hash);
  }
}

}  // namespace
}  // namespace twrs
