// Reproduces Table 2.1 of the paper: the run-count trace of a polyphase
// merge over 6 tapes starting from {8, 10, 3, 0, 8, 11}, and contrasts the
// file-backed polyphase merge with the plain multi-pass merge on real runs.

#include <algorithm>
#include <numeric>

#include "bench/bench_common.h"
#include "merge/polyphase.h"

namespace twrs {
namespace bench {
namespace {

void Run() {
  printf("== Table 2.1: polyphase merge trace (6 tapes) ==\n\n");
  const std::vector<uint64_t> initial = {8, 10, 3, 0, 8, 11};
  const auto trace = SimulatePolyphase(initial);
  TablePrinter table({"", "Tape 1", "Tape 2", "Tape 3", "Tape 4", "Tape 5",
                      "Tape 6"});
  for (size_t step = 0; step < trace.size(); ++step) {
    std::vector<std::string> row = {"Step " + std::to_string(step)};
    for (uint64_t runs : trace[step]) row.push_back(std::to_string(runs));
    table.AddRow(row);
  }
  table.Print(std::cout);
  printf("(matches Table 2.1 of the paper exactly; verified in tests)\n\n");

  printf("-- polyphase vs multi-pass merge on real runs --\n");
  PosixEnv posix;
  const std::string dir = ScratchDir();
  const int num_runs = 40;
  const uint64_t run_records = Scaled(10000);
  std::vector<RunInfo> runs1;
  std::vector<RunInfo> runs2;
  for (int r = 0; r < num_runs; ++r) {
    WorkloadOptions workload;
    workload.num_records = run_records;
    workload.seed = static_cast<uint64_t>(r + 1);
    auto source = MakeWorkload(Dataset::kRandom, workload);
    std::vector<Key> keys(run_records);
    size_t got = 0;
    CheckOk(ReadFull(source.get(), keys.data(), keys.size(), &got),
            "generate run");
    std::sort(keys.begin(), keys.end());
    for (int copy = 0; copy < 2; ++copy) {
      const std::string path =
          dir + "/run" + std::to_string(r) + "_" + std::to_string(copy);
      CheckOk(WriteAllRecords(&posix, path, keys), "write run");
      RunInfo info;
      RunSegment segment;
      segment.path = path;
      segment.count = keys.size();
      info.segments.push_back(segment);
      info.length = keys.size();
      (copy == 0 ? runs1 : runs2).push_back(std::move(info));
    }
  }

  TablePrinter table2({"strategy", "merge steps", "records written",
                       "sim. seconds"});
  {
    SimDiskEnv env(&posix);
    MergeOptions options;
    options.fan_in = 5;
    options.temp_dir = dir;
    options.temp_prefix = "plain";
    MergeStats stats;
    CheckOk(MergeRuns(&env, runs1, options, dir + "/out1", &stats), "merge");
    table2.AddRow({"multi-pass (fan-in 5)", std::to_string(stats.merge_steps),
                   std::to_string(stats.records_written),
                   TablePrinter::Num(env.model().SimulatedSeconds(), 2)});
  }
  {
    SimDiskEnv env(&posix);
    MergeOptions options;
    options.temp_dir = dir;
    options.temp_prefix = "poly";
    MergeStats stats;
    CheckOk(PolyphaseMergeRuns(&env, runs2, /*num_tapes=*/6, options,
                               dir + "/out2", &stats),
            "polyphase");
    table2.AddRow({"polyphase (6 tapes)", std::to_string(stats.merge_steps),
                   std::to_string(stats.records_written),
                   TablePrinter::Num(env.model().SimulatedSeconds(), 2)});
  }
  table2.Print(std::cout);
  printf(
      "(both produce identical sorted output — verified in tests; polyphase\n"
      " trades more, smaller merge steps for fewer full passes)\n");
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
