#ifndef TWRS_CORE_RUN_STATS_H_
#define TWRS_CORE_RUN_STATS_H_

#include <cstdint>
#include <vector>

namespace twrs {

/// Statistics gathered while generating runs. The paper's Chapter 5 response
/// variable is the number of runs (equivalently the average run length,
/// since #runs x avg-length = input size); Chapter 6 additionally uses the
/// 2WRS-internal counters to explain where time goes.
struct RunGenStats {
  /// Length (in records) of each generated run, in generation order.
  std::vector<uint64_t> run_lengths;

  /// Total records emitted across all runs.
  uint64_t total_records = 0;

  /// 2WRS: records a heap produced that were re-tagged for the next run by
  /// the divert rule (see TwoWayReplacementSelection). Always 0 for RS.
  uint64_t diverted_next_run = 0;

  /// 2WRS: records migrated from one heap to the other on pop because only
  /// the opposite side's stream could still accept them. Always 0 for RS.
  uint64_t migrated_across = 0;

  /// 2WRS: records absorbed by the victim buffer.
  uint64_t victim_records = 0;

  /// 2WRS: number of victim buffer flushes (gap re-selections).
  uint64_t victim_flushes = 0;

  uint64_t num_runs() const { return run_lengths.size(); }

  /// Average run length in records (0 when no runs were generated).
  double AverageRunLength() const {
    return run_lengths.empty()
               ? 0.0
               : static_cast<double>(total_records) /
                     static_cast<double>(run_lengths.size());
  }

  /// Average run length relative to the memory size, the unit used by
  /// Table 5.13 of the paper.
  double AverageRunLengthRelative(uint64_t memory_records) const {
    return memory_records == 0
               ? 0.0
               : AverageRunLength() / static_cast<double>(memory_records);
  }
};

}  // namespace twrs

#endif  // TWRS_CORE_RUN_STATS_H_
