// Micro-benchmarks of the data-structure substrate: binary heap, the
// two-sided DoubleHeap, the loser tree, and the median tracker.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "core/input_buffer.h"
#include "heap/binary_heap.h"
#include "heap/double_heap.h"
#include "heap/heapsort.h"
#include "merge/loser_tree.h"
#include "util/random.h"

namespace twrs {
namespace {

void BM_BinaryHeapPushPop(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Random rng(1);
  std::vector<Key> keys(n);
  for (Key& k : keys) k = static_cast<Key>(rng.Next());
  for (auto _ : state) {
    BinaryHeap<Key, std::less<Key>> heap;
    heap.Reserve(n);
    for (Key k : keys) heap.Push(k);
    Key sink = 0;
    while (!heap.empty()) sink ^= heap.Pop();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n * 2);
}
BENCHMARK(BM_BinaryHeapPushPop)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_HeapSortVsStdSort(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool use_std = state.range(1) != 0;
  Random rng(2);
  std::vector<Key> keys(n);
  for (Key& k : keys) k = static_cast<Key>(rng.Next());
  for (auto _ : state) {
    std::vector<Key> copy = keys;
    if (use_std) {
      std::sort(copy.begin(), copy.end());
    } else {
      HeapSort(&copy);
    }
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
  state.SetLabel(use_std ? "std::sort" : "heapsort");
}
BENCHMARK(BM_HeapSortVsStdSort)
    ->Args({1 << 14, 0})
    ->Args({1 << 14, 1})
    ->Args({1 << 17, 0})
    ->Args({1 << 17, 1});

void BM_DoubleHeapReplacement(benchmark::State& state) {
  // The inner loop of 2WRS: pop one side, push a replacement. At 1 << 20
  // the heaps outgrow the cache, which is where run generation spends its
  // time at the benchmark's memory size.
  const size_t capacity = static_cast<size_t>(state.range(0));
  Random rng(3);
  DoubleHeap heap(capacity);
  while (!heap.Full()) {
    if (!heap.Push(rng.OneIn2() ? HeapSide::kBottom : HeapSide::kTop,
                   static_cast<Key>(rng.Uniform(1 << 30)))) {
      state.SkipWithError("DoubleHeap refused a record below capacity");
      return;
    }
  }
  for (auto _ : state) {
    const HeapSide side = !heap.HasCurrent(HeapSide::kBottom) ? HeapSide::kTop
                          : !heap.HasCurrent(HeapSide::kTop)
                              ? HeapSide::kBottom
                              : (rng.OneIn2() ? HeapSide::kBottom
                                              : HeapSide::kTop);
    benchmark::DoNotOptimize(heap.Pop(side));
    benchmark::DoNotOptimize(
        heap.Push(side, static_cast<Key>(rng.Uniform(1 << 30))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DoubleHeapReplacement)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 17)
    ->Arg(1 << 20);

void BM_LoserTreeMerge(benchmark::State& state) {
  const size_t ways = static_cast<size_t>(state.range(0));
  const size_t per_way = 1 << 14;
  Random rng(4);
  std::vector<std::vector<Key>> inputs(ways);
  for (auto& way : inputs) {
    way.resize(per_way);
    for (Key& k : way) k = static_cast<Key>(rng.Uniform(1 << 30));
    std::sort(way.begin(), way.end());
  }
  for (auto _ : state) {
    LoserTree tree(ways);
    std::vector<size_t> pos(ways, 0);
    for (size_t w = 0; w < ways; ++w) tree.SetInitial(w, inputs[w][0]);
    tree.Build();
    Key sink = 0;
    while (!tree.Exhausted()) {
      const size_t w = tree.WinnerIndex();
      sink ^= tree.WinnerKey();
      if (++pos[w] < inputs[w].size()) {
        tree.ReplaceWinner(inputs[w][pos[w]]);
      } else {
        tree.RetireWinner();
      }
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * ways *
                          per_way);
}
BENCHMARK(BM_LoserTreeMerge)->Arg(2)->Arg(5)->Arg(8)->Arg(10)->Arg(64);

void BM_MedianTracker(benchmark::State& state) {
  const size_t window = static_cast<size_t>(state.range(0));
  Random rng(5);
  std::vector<Key> ring(window);
  for (auto _ : state) {
    state.PauseTiming();
    MedianTracker tracker;
    for (size_t i = 0; i < window; ++i) {
      ring[i] = static_cast<Key>(rng.Uniform(1 << 30));
      tracker.Insert(ring[i]);
    }
    state.ResumeTiming();
    for (size_t i = 0; i < 10000; ++i) {
      const size_t slot = i % window;
      tracker.Erase(ring[slot]);
      ring[slot] = static_cast<Key>(rng.Uniform(1 << 30));
      tracker.Insert(ring[slot]);
      benchmark::DoNotOptimize(tracker.Median());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_MedianTracker)->Arg(16)->Arg(256)->Arg(4096);

}  // namespace
}  // namespace twrs

BENCHMARK_MAIN();
