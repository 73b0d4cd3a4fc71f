// Ablation study of the 2WRS design choices:
//  - what each buffer contributes (buffer setup sweep per dataset);
//  - how often the correctness backstops (divert rule, migration) fire per
//    input heuristic — quantifying how well each heuristic separates the
//    heaps;
//  - what the victim buffer absorbs per dataset.

#include "bench/bench_common.h"

namespace twrs {
namespace bench {
namespace {

void BufferSetupAblation() {
  const size_t memory = static_cast<size_t>(Scaled(2000));
  const uint64_t records = Scaled(100000);
  printf("-- ablation: buffer setup (runs generated, Mean/Random, 2%%) --\n");
  TablePrinter table({"Input", "no buffers", "input only", "victim only",
                      "both", "RS"});
  for (int d = 0; d < kNumDatasets; ++d) {
    const Dataset dataset = static_cast<Dataset>(d);
    WorkloadOptions workload;
    workload.num_records = records;
    workload.seed = 5;
    std::vector<std::string> row = {DatasetName(dataset)};
    for (int setup = 0; setup < 4; ++setup) {
      TwoWayOptions options = TwoWayOptions::Recommended(memory, 5);
      options.use_input_buffer = setup == 1 || setup == 3;
      options.use_victim_buffer = setup == 2 || setup == 3;
      row.push_back(
          std::to_string(Count2wrs(options, dataset, workload).num_runs()));
    }
    row.push_back(std::to_string(CountRs(memory, dataset, workload).num_runs()));
    table.AddRow(row);
  }
  table.Print(std::cout);
  printf("\n");
}

void BackstopAblation() {
  const size_t memory = static_cast<size_t>(Scaled(2000));
  const uint64_t records = Scaled(100000);
  printf(
      "-- ablation: correctness backstop activity per input heuristic\n"
      "   (random input; diverted = re-tagged next run, migrated = moved\n"
      "   across heaps; both should be ~0 for range-separating heuristics) "
      "--\n");
  TablePrinter table({"input heuristic", "runs", "diverted", "migrated",
                      "victim absorbed"});
  for (int ih = 0; ih < kNumInputHeuristics; ++ih) {
    TwoWayOptions options = TwoWayOptions::Recommended(memory, 5);
    options.input_heuristic = static_cast<InputHeuristic>(ih);
    WorkloadOptions workload;
    workload.num_records = records;
    workload.seed = 5;
    const RunGenStats stats = Count2wrs(options, Dataset::kRandom, workload);
    table.AddRow({InputHeuristicName(static_cast<InputHeuristic>(ih)),
                  std::to_string(stats.num_runs()),
                  std::to_string(stats.diverted_next_run),
                  std::to_string(stats.migrated_across),
                  std::to_string(stats.victim_records)});
  }
  table.Print(std::cout);
  printf("\n");
}

void VictimAblation() {
  const size_t memory = static_cast<size_t>(Scaled(2000));
  const uint64_t records = Scaled(100000);
  printf("-- ablation: victim buffer activity per dataset (recommended cfg) --\n");
  TablePrinter table(
      {"Input", "runs", "victim absorbed", "victim flushes", "% of input"});
  for (int d = 0; d < kNumDatasets; ++d) {
    const Dataset dataset = static_cast<Dataset>(d);
    WorkloadOptions workload;
    workload.num_records = records;
    workload.seed = 5;
    const RunGenStats stats =
        Count2wrs(TwoWayOptions::Recommended(memory, 5), dataset, workload);
    table.AddRow({DatasetName(dataset), std::to_string(stats.num_runs()),
                  std::to_string(stats.victim_records),
                  std::to_string(stats.victim_flushes),
                  TablePrinter::Num(100.0 * stats.victim_records / records,
                                    2)});
  }
  table.Print(std::cout);
}

void Run() {
  printf("== Ablations of 2WRS design choices ==\n\n");
  BufferSetupAblation();
  BackstopAblation();
  VictimAblation();
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
