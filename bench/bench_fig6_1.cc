// Reproduces Figure 6.1 of the paper: merge time as a function of the
// fan-in. The paper merges 400 pre-sorted 16 MB runs on a 2010 SATA disk
// and finds a U-shaped curve with the optimum near fan-in 10: small fan-ins
// need more merge passes, large fan-ins make the disk head seek between
// many files. A page-cached SSD hides the right half of the U, so the
// simulated disk model (SimDiskEnv, src/io/sim_disk_env.h) supplies the
// seek accounting; real wall-clock time is reported alongside.

#include <algorithm>

#include "bench/bench_common.h"
#include "merge/kway_merge.h"

namespace twrs {
namespace bench {
namespace {

void Run() {
  PosixEnv posix;
  const std::string dir = ScratchDir();
  const int num_runs = 60;
  const uint64_t run_records = Scaled(20000);
  printf("== Figure 6.1: merge time vs fan-in ==\n");
  printf("%d pre-sorted runs of %llu records each\n\n", num_runs,
         static_cast<unsigned long long>(run_records));

  // Pre-generate sorted runs, as the paper does.
  std::vector<RunInfo> templates;
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
    const std::string path = dir + "/run" + std::to_string(r);
    CheckOk(WriteAllRecords(&posix, path, keys), "write run");
    RunInfo info;
    RunSegment segment;
    segment.path = path;
    segment.count = keys.size();
    info.segments.push_back(segment);
    info.length = keys.size();
    templates.push_back(std::move(info));
  }

  TablePrinter table({"fan-in", "merge steps", "sim. minutes", "real seconds"});
  double best_sim = 1e100;
  size_t best_fan_in = 0;
  for (size_t fan_in : {2, 4, 6, 8, 10, 12, 16, 24, 40, 60}) {
    SimDiskEnv env(&posix);
    MergeOptions options;
    options.fan_in = fan_in;
    // The paper's merge buffers share the sort memory: more ways -> smaller
    // buffer per run, which is what makes wide fan-ins seek-bound.
    options.io.block_bytes = (1 << 22) / fan_in;
    options.temp_dir = dir;
    options.temp_prefix = "fan" + std::to_string(fan_in);
    options.remove_inputs = false;  // keep the template runs
    MergeStats stats;
    Stopwatch watch;
    CheckOk(MergeRuns(&env, templates, options, dir + "/merged", &stats),
            "merge");
    const double real_seconds = watch.ElapsedSeconds();
    const double sim_minutes = env.model().SimulatedSeconds() / 60.0;
    if (sim_minutes < best_sim) {
      best_sim = sim_minutes;
      best_fan_in = fan_in;
    }
    table.AddRow({std::to_string(fan_in), std::to_string(stats.merge_steps),
                  TablePrinter::Num(sim_minutes, 3),
                  TablePrinter::Num(real_seconds, 2)});
    CheckOk(posix.RemoveFile(dir + "/merged"), "cleanup");
  }
  table.Print(std::cout);
  printf("\nsimulated optimum at fan-in %zu (paper: 10)\n", best_fan_in);
  printf(
      "Expected shape: U-curve in simulated time — extra merge passes hurt\n"
      "below the optimum, per-stream buffer shrinkage (more seeks) above.\n");
  for (const RunInfo& run : templates) {
    CheckOk(RemoveRunFiles(&posix, run), "cleanup");
  }
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
