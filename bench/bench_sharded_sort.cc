// Measures the sharded sort path (src/shard) against the unsharded
// pipelined path on a real-time emulated disk. ShardedSorter samples the
// input, writes range-disjoint shard files and runs a complete external
// sort per shard concurrently on the shared executor, so run generation —
// the serial bottleneck of the unsharded path — parallelizes across
// shards; each shard's final merge writes its byte range of the output
// directly (RangeMergeSink), with no concatenation pass. To keep the
// concat-vs-direct-write comparison honest after that pass's removal, the
// bench also measures a concat-equivalent byte copy of the finished output
// on the same emulated disk — the wall time the deleted pass would have
// added. Output is verified identical (count + checksum) across all
// configurations; the interesting columns are the speedup over the 0-shard
// (unsharded parallel) baseline and the avoided concat cost.

#include <algorithm>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "exec/executor.h"
#include "shard/sharded_sorter.h"

namespace twrs {
namespace bench {
namespace {

void Run() {
  const std::string dir = ScratchDir();
  const uint64_t records = Scaled(1000000);
  const size_t memory = static_cast<size_t>(Scaled(10000));
  const size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());

  // Same real-time emulated disk as bench_parallel_sort: ~10x the paper's
  // 2010 drive so the bench stays quick, but the sort genuinely waits out
  // its simulated I/O — which is the latency sharding hides.
  DiskModelConfig disk;
  disk.realtime = true;
  disk.seek_seconds = 0.0008;
  disk.bandwidth_bytes_per_second = 1024.0 * 1024 * 1024;

  PosixEnv posix;
  WorkloadOptions workload;
  workload.num_records = records;
  workload.seed = 1;
  const std::string input_path = dir + "/input";
  CheckOk(WriteWorkloadToFile(&posix, Dataset::kRandom, workload, input_path),
          "write workload");

  printf("== Sharded external sort vs unsharded pipelined (src/shard) ==\n");
  printf(
      "input = %llu records, memory = %zu records per sort, fan-in = 10,\n"
      "executor capacity = %zu, real-time emulated disk (%.1f ms seek, "
      "%.0f MiB/s)\n\n",
      static_cast<unsigned long long>(records), memory,
      Executor::Shared().capacity(), disk.seek_seconds * 1000,
      disk.bandwidth_bytes_per_second / (1024.0 * 1024));

  uint64_t reference_count = 0;
  KeyChecksum reference_sum;
  bool have_reference = false;
  double baseline_seconds = 0.0;

  TablePrinter table({"shards", "total s", "split s", "sort s",
                      "concat-equiv s", "speedup"});
  // shards == 0 row: the unsharded pipelined path (PR 2), the baseline the
  // acceptance criterion compares against. Deduped so a 2- or 4-core host
  // does not re-run (and double-report) a configuration.
  std::vector<size_t> shard_counts;
  for (size_t shards : {size_t{0}, size_t{2}, size_t{4}, hw}) {
    if (std::find(shard_counts.begin(), shard_counts.end(), shards) ==
        shard_counts.end()) {
      shard_counts.push_back(shards);
    }
  }
  for (size_t shards : shard_counts) {
    SimDiskEnv env(&posix, disk);
    const std::string out = dir + "/out";

    ExternalSortOptions sort_options;
    sort_options.memory_records = memory;
    sort_options.twrs = TwoWayOptions::Recommended(memory, 1);
    sort_options.temp_dir = dir + "/tmp";
    sort_options.parallel.worker_threads = hw;
    sort_options.parallel.prefetch_blocks = 2;

    double total = 0.0, split = 0.0, sort = 0.0;
    uint64_t bytes_read = 0, bytes_written = 0;
    if (shards == 0) {
      ExternalSorter sorter(&env, sort_options);
      FileRecordSource source(&env, input_path);
      ExternalSortResult result;
      Stopwatch watch;
      CheckOk(sorter.Sort(&source, out, &result), "unsharded sort");
      total = watch.ElapsedSeconds();
      sort = result.total_seconds;
      bytes_read = result.bytes_read;
      bytes_written = result.bytes_written;
    } else {
      ShardedSortOptions sharded;
      sharded.shards = shards;
      sharded.sort = sort_options;
      ShardedSorter sorter(&env, sharded);
      ShardedSortResult result;
      CheckOk(sorter.SortFile(input_path, out, &result), "sharded sort");
      total = result.total_seconds;
      split = result.split_seconds;
      sort = result.sort_seconds;
      bytes_read = result.bytes_read;
      bytes_written = result.bytes_written;
    }

    // Concat-equivalent: one sequential read + write of the finished
    // output on the same emulated disk — the extra pass direct range
    // writes removed. Measured, not modeled, so the JSON trajectory shows
    // the real wall time a concatenating final pass would re-add.
    double concat_equiv = 0.0;
    if (shards > 0) {
      const std::string copy_path = dir + "/concat_equiv";
      Stopwatch concat_watch;
      std::unique_ptr<SequentialFile> in;
      CheckOk(env.NewSequentialFile(out, &in), "open concat-equiv input");
      std::unique_ptr<WritableFile> copy;
      CheckOk(env.NewWritableFile(copy_path, &copy),
              "create concat-equiv output");
      std::vector<uint8_t> buffer(size_t{1} << 20);
      for (;;) {
        size_t got = 0;
        CheckOk(in->Read(buffer.data(), buffer.size(), &got),
                "concat-equiv read");
        if (got > 0) {
          CheckOk(copy->Append(buffer.data(), got), "concat-equiv write");
        }
        if (got < buffer.size()) break;
      }
      CheckOk(copy->Close(), "close concat-equiv");
      concat_equiv = concat_watch.ElapsedSeconds();
      CheckOk(posix.RemoveFile(copy_path), "cleanup concat-equiv");
    }

    uint64_t count = 0;
    KeyChecksum sum;
    CheckOk(VerifySortedFile(&env, out, &count, &sum), "verify output");
    if (!have_reference) {
      reference_count = count;
      reference_sum = sum;
      have_reference = true;
      baseline_seconds = total;
    } else if (count != reference_count || !(sum == reference_sum)) {
      fprintf(stderr, "FATAL sharded output differs from baseline\n");
      abort();
    }
    CheckOk(posix.RemoveFile(out), "cleanup out");

    table.AddRow({std::to_string(shards), TablePrinter::Num(total, 3),
                  TablePrinter::Num(split, 3), TablePrinter::Num(sort, 3),
                  TablePrinter::Num(concat_equiv, 3),
                  TablePrinter::Num(
                      total > 0 ? baseline_seconds / total : 0.0, 2)});

    JsonEntry entry;
    entry.Str("label", shards == 0 ? "unsharded" : "sharded")
        .Str("io_backend", "default")
        .Int("shards", shards)
        .Int("records", records)
        .Int("memory_records", memory)
        .Int("executor_capacity", Executor::Shared().capacity())
        .Num("total_seconds", total)
        .Num("split_seconds", split)
        .Num("sort_seconds", sort)
        // Direct-write total vs what the same sort plus the removed
        // concatenation pass would have cost.
        .Num("concat_equivalent_seconds", concat_equiv)
        .Num("total_with_concat_seconds", total + concat_equiv)
        .Num("speedup_vs_unsharded",
             total > 0 ? baseline_seconds / total : 0.0)
        .Num("records_per_second",
             total > 0 ? static_cast<double>(records) / total : 0.0)
        .Int("bytes_read", bytes_read)
        .Int("bytes_written", bytes_written);
    JsonReporter::Global().Add(entry);
  }
  table.Print(std::cout);
  printf(
      "\nExpected shape: > 1x speedup at 2+ shards. Sharding pays two extra\n"
      "input passes (sample + partition) but runs whole per-shard sorts —\n"
      "run generation included — concurrently on the shared executor, and\n"
      "their final merges write the output's byte ranges directly: the\n"
      "concat-equiv column is the wall time the removed pass would re-add.\n");
  CheckOk(posix.RemoveFile(input_path), "cleanup input");
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
