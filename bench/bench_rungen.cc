// Micro-benchmarks of run generation throughput (records/second) for
// Load-Sort-Store, RS and 2WRS across datasets — the CPU-side cost the
// paper discusses in §6.2 ("the logic of 2WRS is slightly more complex").

#include <benchmark/benchmark.h>

#include <algorithm>

#include "core/batched_replacement_selection.h"
#include "core/load_sort_store.h"
#include "core/replacement_selection.h"
#include "core/run_sink.h"
#include "core/two_way_replacement_selection.h"
#include "workload/generators.h"

namespace twrs {
namespace {

constexpr int64_t kMemory = 4096;
constexpr uint64_t kRecords = 200000;
// A memory whose heaps outgrow the cache, as in the end-to-end sort
// benchmark, over four memories of input.
constexpr int64_t kLargeMemory = 1 << 20;

// Arguments are {dataset, memory records}.
void AllDatasets(benchmark::internal::Benchmark* b) {
  for (int d = 0; d < kNumDatasets; ++d) b->Args({d, kMemory});
}

void AllDatasetsAndLargeMemory(benchmark::internal::Benchmark* b) {
  AllDatasets(b);
  b->Args({static_cast<int64_t>(Dataset::kRandom), kLargeMemory});
}

size_t Memory(const benchmark::State& state) {
  return static_cast<size_t>(state.range(1));
}

void RunGenerator(benchmark::State& state, RunGenerator* generator) {
  const Dataset dataset = static_cast<Dataset>(state.range(0));
  const uint64_t records = std::max<uint64_t>(kRecords, 4 * Memory(state));
  uint64_t runs = 0;
  for (auto _ : state) {
    WorkloadOptions workload;
    workload.num_records = records;
    workload.seed = 7;
    auto source = MakeWorkload(dataset, workload);
    CountingRunSink sink;
    RunGenStats stats;
    benchmark::DoNotOptimize(
        generator->Generate(source.get(), &sink, &stats).ok());
    runs = stats.num_runs();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(records));
  state.counters["runs"] = static_cast<double>(runs);
}

void BM_LoadSortStore(benchmark::State& state) {
  LoadSortStoreOptions options;
  options.memory_records = Memory(state);
  LoadSortStore generator(options);
  RunGenerator(state, &generator);
}
BENCHMARK(BM_LoadSortStore)->Apply(AllDatasetsAndLargeMemory);

void BM_ReplacementSelection(benchmark::State& state) {
  ReplacementSelectionOptions options;
  options.memory_records = Memory(state);
  ReplacementSelection generator(options);
  RunGenerator(state, &generator);
}
BENCHMARK(BM_ReplacementSelection)->Apply(AllDatasets);

void BM_BatchedReplacementSelection(benchmark::State& state) {
  BatchedReplacementSelectionOptions options;
  options.memory_records = Memory(state);
  options.batch_records = Memory(state) / 8;
  BatchedReplacementSelection generator(options);
  RunGenerator(state, &generator);
}
BENCHMARK(BM_BatchedReplacementSelection)->Apply(AllDatasetsAndLargeMemory);

void BM_TwoWayReplacementSelection(benchmark::State& state) {
  TwoWayReplacementSelection generator(
      TwoWayOptions::Recommended(Memory(state)));
  RunGenerator(state, &generator);
}
BENCHMARK(BM_TwoWayReplacementSelection)->Apply(AllDatasetsAndLargeMemory);

}  // namespace
}  // namespace twrs

BENCHMARK_MAIN();
