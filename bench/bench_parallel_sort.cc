// Measures the pipelined execution subsystem (src/exec): a bench_fig6_6-sized
// full sort on the simulated-disk env, serial vs parallel. The parallel path
// overlaps run flushing with heap work (AsyncWritableFile), keeps read-ahead
// blocks in flight per merge input (PrefetchingSequentialFile), and
// dispatches independent same-level merges onto the thread pool. Output is
// verified identical (count + checksum) between the two paths; the
// interesting column is the wall-clock speedup.

#include <algorithm>
#include <thread>
#include <vector>

#include "bench/bench_common.h"

namespace twrs {
namespace bench {
namespace {

void Run() {
  const std::string dir = ScratchDir();
  const uint64_t records = Scaled(1000000);
  const size_t memory = static_cast<size_t>(Scaled(10000));
  const size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());

  // A real-time emulated disk, scaled ~10x faster than the paper's 2010
  // drive so the bench stays quick: the sort actually waits out its
  // simulated I/O, which is what gives the pipelined path latency to hide.
  DiskModelConfig disk;
  disk.realtime = true;
  disk.seek_seconds = 0.0008;
  disk.bandwidth_bytes_per_second = 1024.0 * 1024 * 1024;

  printf("== Parallel external sort: serial vs pipelined (src/exec) ==\n");
  printf(
      "input = %llu records, memory = %zu records, fan-in = 10,\n"
      "real-time emulated disk (%.1f ms seek, %.0f MiB/s)\n\n",
      static_cast<unsigned long long>(records), memory,
      disk.seek_seconds * 1000,
      disk.bandwidth_bytes_per_second / (1024.0 * 1024));

  TablePrinter table({"threads", "total s", "run gen s", "merge s", "runs",
                      "speedup"});
  double serial_seconds = 0.0;
  for (size_t threads : {size_t{0}, size_t{2}, size_t{4}, hw}) {
    TimedSortSpec spec;
    spec.dataset = Dataset::kRandom;
    spec.records = records;
    spec.memory = memory;
    spec.scratch_dir = dir;
    spec.algorithm = RunGenAlgorithm::kTwoWayReplacementSelection;
    spec.parallel.worker_threads = threads;
    spec.parallel.prefetch_blocks = threads == 0 ? 0 : 2;
    // This bench measures scaling per pool size, so each row spawns its
    // own worker_threads-sized pool instead of borrowing the shared
    // executor (whose capacity is fixed process-wide).
    spec.parallel.dedicated_pool = true;
    spec.disk = disk;
    spec.label = threads == 0 ? "serial" : "parallel";
    const TimedSort timed = RunTimedSort(spec);
    if (threads == 0) serial_seconds = timed.total_seconds;
    table.AddRow({std::to_string(threads),
                  TablePrinter::Num(timed.total_seconds, 3),
                  TablePrinter::Num(timed.run_gen_seconds, 3),
                  TablePrinter::Num(timed.total_seconds -
                                        timed.run_gen_seconds, 3),
                  std::to_string(timed.num_runs),
                  TablePrinter::Num(
                      timed.total_seconds > 0
                          ? serial_seconds / timed.total_seconds
                          : 0.0, 2)});
  }
  table.Print(std::cout);
  printf(
      "\nExpected shape: >= 1.15x total speedup with 2+ worker threads; the\n"
      "merge phase parallelizes across same-level leaf merges while run\n"
      "generation gains come from overlapping run flushes with heap work.\n");

  // Final-merge thread sweep: worker count fixed at hw, the last pass split
  // into P concurrent partial merges over key-domain partitions (each
  // writing its byte range of the output through a RangeMergeSink). P = 1
  // is the serial final pass the other rows above already used. The sweep
  // runs on a flash-like profile (50 us positioning) rather than the
  // rotating-disk model: splitter sampling and boundary search pay a fixed
  // number of positioned probes, so a 0.8 ms seek disk is exactly where a
  // partitioned last pass should NOT be used — the win comes on devices
  // where positioning is cheap and the serial loser tree is CPU-bound.
  DiskModelConfig flash = disk;
  flash.seek_seconds = 0.00005;
  printf("\n== Final-merge partition sweep (P partial merges, %zu workers, "
         "flash-like disk) ==\n\n", hw);
  TablePrinter fm_table({"fm threads", "total s", "run gen s", "merge s",
                         "runs", "speedup"});
  double fm_serial_seconds = 0.0;
  std::vector<size_t> fm_counts;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, hw}) {
    if (std::find(fm_counts.begin(), fm_counts.end(), threads) ==
        fm_counts.end()) {
      fm_counts.push_back(threads);
    }
  }
  for (size_t fm_threads : fm_counts) {
    TimedSortSpec spec;
    spec.dataset = Dataset::kRandom;
    spec.records = records;
    spec.memory = memory;
    spec.scratch_dir = dir;
    spec.algorithm = RunGenAlgorithm::kTwoWayReplacementSelection;
    spec.parallel.worker_threads = hw;
    spec.parallel.prefetch_blocks = 2;
    spec.parallel.final_merge_threads = fm_threads;
    spec.parallel.dedicated_pool = true;
    spec.disk = flash;
    spec.label = fm_threads <= 1 ? "final-merge-serial"
                                 : "final-merge-partitioned";
    const TimedSort timed = RunTimedSort(spec);
    if (fm_threads == 1) fm_serial_seconds = timed.total_seconds;
    fm_table.AddRow({std::to_string(fm_threads),
                     TablePrinter::Num(timed.total_seconds, 3),
                     TablePrinter::Num(timed.run_gen_seconds, 3),
                     TablePrinter::Num(timed.total_seconds -
                                           timed.run_gen_seconds, 3),
                     std::to_string(timed.num_runs),
                     TablePrinter::Num(
                         timed.total_seconds > 0
                             ? fm_serial_seconds / timed.total_seconds
                             : 0.0, 2)});
  }
  fm_table.Print(std::cout);
  printf(
      "\nExpected shape: the merge column shrinks as P grows until the\n"
      "emulated disk's bandwidth, not the single loser tree, is the\n"
      "bottleneck; output bytes are identical at every P.\n");
}

}  // namespace
}  // namespace bench
}  // namespace twrs

int main(int argc, char** argv) {
  twrs::bench::ParseBenchArgs(argc, argv);
  twrs::bench::Run();
  twrs::bench::JsonReporter::Global().Flush();
  return 0;
}
