// Reproduces Table 5.13 of the paper: average run length relative to the
// memory size, for RS and three 2WRS configurations, on all six input
// datasets. The paper uses 100K records of memory and 25M-record inputs;
// the defaults here scale that down (TWRS_BENCH_SCALE scales back up; see
// README "Benchmarks") while keeping the input >= 100x memory so the
// asymptotic regime is preserved. "inf" means a single run holding the
// entire input.

#include "bench/bench_common.h"

namespace twrs {
namespace bench {
namespace {

std::string Relative(const RunGenStats& stats, size_t memory) {
  if (stats.num_runs() <= 1) return "inf";
  return TablePrinter::Num(stats.AverageRunLengthRelative(memory), 2);
}

void Run() {
  const size_t memory = static_cast<size_t>(Scaled(2000));
  const uint64_t records = Scaled(200000);
  printf("== Table 5.13: average run length relative to memory ==\n");
  printf("memory = %zu records, input = %llu records, sections = 50\n\n",
         memory, static_cast<unsigned long long>(records));

  // The three 2WRS configurations of Table 5.13, all Mean/Random:
  //   cfg1: input buffer only, 0.02% of memory
  //   cfg2: both buffers, 20% of memory
  //   cfg3: both buffers, 2% of memory (the recommended configuration)
  TwoWayOptions cfg1;
  cfg1.memory_records = memory;
  cfg1.buffer_fraction = 0.0002;
  cfg1.use_input_buffer = true;
  cfg1.use_victim_buffer = false;
  TwoWayOptions cfg2 = TwoWayOptions::Recommended(memory);
  cfg2.buffer_fraction = 0.2;
  TwoWayOptions cfg3 = TwoWayOptions::Recommended(memory);

  TablePrinter table({"Input", "RS", "2WRS cfg1", "2WRS cfg2", "2WRS cfg3",
                      "paper RS", "paper cfg3"});
  const char* paper_rs[] = {"inf", "1.0", "1.94", "2.0", "2.0", "2.0"};
  const char* paper_cfg3[] = {"inf", "inf", "50", "1.96", "63", "63"};
  for (int d = 0; d < kNumDatasets; ++d) {
    const Dataset dataset = static_cast<Dataset>(d);
    WorkloadOptions workload;
    workload.num_records = records;
    workload.sections = 50;
    workload.seed = 11;
    const RunGenStats rs = CountRs(memory, dataset, workload);
    cfg1.seed = cfg2.seed = cfg3.seed = 11;
    const RunGenStats r1 = Count2wrs(cfg1, dataset, workload);
    const RunGenStats r2 = Count2wrs(cfg2, dataset, workload);
    const RunGenStats r3 = Count2wrs(cfg3, dataset, workload);
    table.AddRow({DatasetName(dataset), Relative(rs, memory),
                  Relative(r1, memory), Relative(r2, memory),
                  Relative(r3, memory), paper_rs[d], paper_cfg3[d]});
  }
  table.Print(std::cout);
  printf(
      "\nNote: paper cfg3 values for alternating/mixed depend on its\n"
      "25M-record input (alternating: 50 sections -> run length = input/50;\n"
      "mixed: 2 runs -> input/2). The shape to compare is: 2WRS == RS on\n"
      "random, 'inf' (single run) where RS degrades, and ~input/sections on\n"
      "alternating.\n");
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
