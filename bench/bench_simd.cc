/// Per-kernel scalar-vs-AVX2 microbenchmarks for the src/simd layer.
///
/// Every kernel is timed through its fixed-level internal twins on
/// identical inputs, the outputs are cross-checked byte-identical before
/// any number is reported, and the results flow into the standard --json
/// report (schema_version 2, diffable with tools/bench_diff.py). On hosts
/// without AVX2 only the scalar rows are emitted.
///
///   bench_simd [--json BENCH_simd.json] [--profile NAME]

#include <algorithm>
#include <random>
#include <vector>

#include "bench/bench_common.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "util/table_printer.h"

namespace twrs {
namespace bench {
namespace {

constexpr size_t kKeys = 1 << 16;
constexpr uint64_t kSeed = 20100802;  // the paper's VLDB year + figure

std::vector<Key> RandomKeys(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Key> keys(n);
  for (Key& k : keys) k = static_cast<Key>(rng());
  return keys;
}

/// Median-of-5 wall time of one repetition of `fn` (each sample runs
/// `reps` back-to-back calls), keeping a single noisy sample from
/// polluting the speedup ratios.
template <typename Fn>
double TimeSeconds(Fn&& fn, int reps) {
  double samples[5];
  for (double& sample : samples) {
    Stopwatch watch;
    for (int r = 0; r < reps; ++r) fn();
    sample = watch.ElapsedSeconds() / reps;
  }
  std::sort(samples, samples + 5);
  return samples[2];
}

struct KernelTiming {
  const char* kernel;
  uint64_t records;
  double scalar_seconds = 0.0;
  double avx2_seconds = 0.0;  // 0 when the host lacks AVX2
};

void Report(const KernelTiming& timing, TablePrinter* table) {
  JsonEntry scalar;
  scalar.Str("kernel", timing.kernel)
      .Str("dispatch", "scalar")
      .Int("records", timing.records)
      .Num("wall_seconds", timing.scalar_seconds)
      .Num("keys_per_second",
           static_cast<double>(timing.records) / timing.scalar_seconds);
  JsonReporter::Global().Add(scalar);
  const bool has_avx2 = timing.avx2_seconds > 0.0;
  const double speedup =
      has_avx2 ? timing.scalar_seconds / timing.avx2_seconds : 0.0;
  if (has_avx2) {
    JsonEntry avx2;
    avx2.Str("kernel", timing.kernel)
        .Str("dispatch", "avx2")
        .Int("records", timing.records)
        .Num("wall_seconds", timing.avx2_seconds)
        .Num("keys_per_second",
             static_cast<double>(timing.records) / timing.avx2_seconds)
        .Num("speedup", speedup);
    JsonReporter::Global().Add(avx2);
  }
  table->AddRow({timing.kernel, std::to_string(timing.records),
                 TablePrinter::Num(timing.scalar_seconds * 1e6, 1),
                 has_avx2 ? TablePrinter::Num(timing.avx2_seconds * 1e6, 1)
                          : "-",
                 has_avx2 ? TablePrinter::Num(speedup, 2) + "x" : "-"});
}

void RequireIdentical(bool identical, const char* kernel) {
  if (!identical) {
    fprintf(stderr, "FATAL: %s avx2 output differs from scalar\n", kernel);
    abort();
  }
}

KernelTiming BenchSortKeysBlock(bool avx2) {
  const std::vector<Key> master = RandomKeys(kKeys, kSeed);
  std::vector<Key> work(kKeys);
  KernelTiming timing{"sort_block", kKeys, 0.0, 0.0};
  timing.scalar_seconds = TimeSeconds(
      [&] {
        work = master;
        simd::internal::SortKeysBlockScalar(work.data(), work.size());
      },
      20);
  if (avx2) {
    const std::vector<Key> expected = work;
    timing.avx2_seconds = TimeSeconds(
        [&] {
          work = master;
          simd::internal::SortKeysBlockAvx2(work.data(), work.size());
        },
        20);
    RequireIdentical(work == expected, timing.kernel);
  }
  return timing;
}

KernelTiming BenchPartition(bool avx2) {
  const std::vector<Key> keys = RandomKeys(kKeys, kSeed + 1);
  std::vector<Key> splitters = RandomKeys(31, kSeed + 2);
  std::sort(splitters.begin(), splitters.end());
  std::vector<uint32_t> bucket(kKeys);
  KernelTiming timing{"partition", kKeys, 0.0, 0.0};
  timing.scalar_seconds = TimeSeconds(
      [&] {
        simd::internal::PartitionBySplittersScalar(
            keys.data(), keys.size(), splitters.data(), splitters.size(),
            bucket.data());
      },
      20);
  if (avx2) {
    const std::vector<uint32_t> expected = bucket;
    timing.avx2_seconds = TimeSeconds(
        [&] {
          simd::internal::PartitionBySplittersAvx2(
              keys.data(), keys.size(), splitters.data(), splitters.size(),
              bucket.data());
        },
        20);
    RequireIdentical(bucket == expected, timing.kernel);
  }
  return timing;
}

int Main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  const bool avx2 = simd::CpuSupportsAvx2();
  printf("simd dispatch: %s (avx2 compiled: %s, TWRS_FORCE_SCALAR honored "
         "by dispatched call sites, twins pinned here)\n",
         simd::DispatchLevelName(simd::ActiveDispatchLevel()),
         simd::internal::Avx2Compiled() ? "yes" : "no");

  TablePrinter table({"Kernel", "Records", "Scalar us", "AVX2 us",
                      "Speedup"});
  Report(BenchSortKeysBlock(avx2), &table);
  Report(BenchPartition(avx2), &table);
  table.Print(std::cout);

  JsonReporter::Global().Flush();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace twrs

int main(int argc, char** argv) { return twrs::bench::Main(argc, argv); }
