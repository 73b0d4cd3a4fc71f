#ifndef TWRS_MERGE_SORT_PHASES_H_
#define TWRS_MERGE_SORT_PHASES_H_

#include <memory>
#include <string>
#include <vector>

#include "core/record_source.h"
#include "core/run_sink.h"
#include "exec/thread_pool.h"
#include "io/env.h"
#include "merge/external_sorter.h"
#include "merge/merge_plan.h"
#include "util/cancel.h"
#include "util/status.h"

namespace twrs {

/// Shared state threaded through the three phases of one external sort
/// (ExternalSorter::SortInternal calls them in order). Built by
/// PrepareSortContext, consumed and extended by each phase in turn.
struct SortContext {
  Env* env = nullptr;
  const ExternalSortOptions* options = nullptr;

  /// Unique per-sort scratch directory under options->temp_dir.
  std::string sort_dir;

  /// Worker pool for the pipelined features, borrowed from the configured
  /// Executor; null = fully serial.
  ThreadPool* pool = nullptr;

  /// Cooperative cancellation token from the sort options; polled by the
  /// run-generation and merge phases. Null = not cancellable.
  const CancelToken* cancel = nullptr;

  /// Live progress counters from the sort options; each phase advances
  /// the current phase and feeds its record counts. Null = no progress.
  ProgressCounters* progress = nullptr;

  /// Metrics registry from the sort options; each phase records its wall
  /// time and sink flush latencies. Null = no metrics.
  MetricsRegistry* metrics = nullptr;

  /// Runs produced by the run-generation phase.
  std::vector<RunInfo> runs;

  /// Output placement of the final merge: default append-created file, or
  /// a positioned byte range of a shared output (SortIntoRange).
  MergeOutputRange output_range;

  /// Merge configuration produced by the planning phase.
  MergeOptions merge_plan;

  /// Timing and volume accumulated across phases.
  ExternalSortResult result;
};

/// Resolves the execution resources of one sort: creates the unique
/// sort_dir and picks the pool — none (serial) or borrowed from the
/// configured Executor.
Status PrepareSortContext(Env* env, const ExternalSortOptions& options,
                          SortContext* context);

/// Phase 1: consumes `input` through the configured run-generation
/// algorithm, writing runs into sort_dir (async-flushed when the context
/// has a pool) and recording run stats plus the phase time. Does not take
/// ownership of `input`.
Status RunGenerationPhase(RecordSource* input, SortContext* context);

/// Phase 2: derives the merge schedule configuration (fan-in, buffers,
/// prefetch and pool wiring) from the sort options into context->merge_plan.
Status MergePlanningPhase(SortContext* context);

/// Phase 3: executes the planned multi-pass merge of context->runs into
/// `output_path` and records merge stats plus the phase time.
Status FinalMergePhase(const std::string& output_path,
                       SortContext* context);

}  // namespace twrs

#endif  // TWRS_MERGE_SORT_PHASES_H_
