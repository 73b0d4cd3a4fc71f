#ifndef TWRS_CORE_TWO_WAY_REPLACEMENT_SELECTION_H_
#define TWRS_CORE_TWO_WAY_REPLACEMENT_SELECTION_H_

#include <cstddef>
#include <cstdint>

#include "core/heuristics.h"
#include "core/run_generator.h"
#include "util/status.h"

namespace twrs {

/// Configuration of Two-way Replacement Selection (Chapter 4). The four
/// tunables correspond to the four ANOVA factors of Chapter 5: buffer setup
/// (which buffers exist), buffer size, input heuristic and output heuristic.
struct TwoWayOptions {
  /// Total memory budget M in records, shared by the two heaps, the input
  /// buffer and the victim buffer — matching the paper's experiments, where
  /// the total allocation is constant across configurations (§5.2).
  size_t memory_records = 0;

  /// Fraction of M dedicated to the buffers (paper levels: 0.0002, 0.002,
  /// 0.02, 0.2). Split evenly when both buffers are enabled.
  double buffer_fraction = 0.02;

  bool use_input_buffer = true;
  bool use_victim_buffer = true;

  InputHeuristic input_heuristic = InputHeuristic::kMean;
  OutputHeuristic output_heuristic = OutputHeuristic::kRandom;

  /// Seed for the randomized heuristics.
  uint64_t seed = 1;

  /// Derived sizes. Enabled buffers get at least one record each; the heaps
  /// get the remainder.
  size_t TotalBufferRecords() const;
  size_t InputBufferRecords() const;
  size_t VictimBufferRecords() const;
  size_t HeapRecords() const;

  /// Checks that the configuration is usable (positive memory, heaps of at
  /// least two records, fraction in [0, 1)).
  Status Validate() const;

  /// The paper's recommended all-round configuration (§5.3): both buffers,
  /// 2% of memory for buffers, Mean input heuristic, Random output
  /// heuristic.
  static TwoWayOptions Recommended(size_t memory_records, uint64_t seed = 1);
};

/// Two-way Replacement Selection (Chapter 4).
///
/// Two heaps share one memory arena: the TopHeap captures ascending trends
/// (emitting the increasing stream 1) and the BottomHeap descending trends
/// (emitting the decreasing stream 4), so the algorithm is symmetric under
/// input reversal — the asymmetry that cripples RS on reverse-sorted input.
/// An input buffer gives the input heuristic a sample of upcoming records;
/// a victim buffer absorbs records falling in the gap between what the two
/// heap streams can still emit, emitting streams 3 (increasing) and 2
/// (decreasing). Each run is the concatenation 4·3·2·1.
///
/// Implementation note: the cross-stream invariant
/// stream4 <= stream3 <= stream2 <= stream1 is enforced explicitly. A popped
/// record its own stream can no longer accept is routed to the victim
/// buffer, migrated to the opposite heap when that side's stream still
/// accepts it, or re-tagged for the next run (the "divert rule"). Diverts
/// happen only for records placed before the run's output division was
/// established; the stats report their frequency.
class TwoWayReplacementSelection : public RunGenerator {
 public:
  explicit TwoWayReplacementSelection(TwoWayOptions options);

  Status Generate(RecordSource* source, RunSink* sink,
                  RunGenStats* stats) override;

  std::string name() const override { return "2WRS"; }

  const TwoWayOptions& options() const { return options_; }

 private:
  TwoWayOptions options_;
};

}  // namespace twrs

#endif  // TWRS_CORE_TWO_WAY_REPLACEMENT_SELECTION_H_
