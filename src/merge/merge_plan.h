#ifndef TWRS_MERGE_MERGE_PLAN_H_
#define TWRS_MERGE_MERGE_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/run_sink.h"
#include "io/env.h"
#include "io/range_file.h"
#include "merge/kway_merge.h"
#include "util/status.h"

namespace twrs {

/// Options for the multi-pass merge phase (§2.1.2 / §6.1.1).
struct MergeOptions {
  /// Runs merged simultaneously per step (the paper measures an optimum of
  /// 10 on its disk, Fig 6.1).
  size_t fan_in = 10;

  /// Buffers, cancellation, progress and flush timing of every merge pass.
  /// A non-null `io.pool` (which must outlive the merge) also dispatches
  /// independent same-level intermediate merges onto it concurrently —
  /// batch composition matches the serial schedule exactly, so stats and
  /// output are identical — and hosts the partitioned final merge. The Env
  /// must then be safe for concurrent file creation/removal (PosixEnv,
  /// MemEnv and SimDiskEnv all are).
  MergeIoOptions io;

  /// Directory for intermediate runs.
  std::string temp_dir = ".";

  /// Name prefix for intermediate runs.
  std::string temp_prefix = "merge";

  /// Delete input and intermediate runs once consumed.
  bool remove_inputs = true;

  /// Partitions of the *final* merge step. Values > 1 (with a pool) split
  /// the key domain by sampled splitters and run that many partial
  /// loser-tree merges concurrently, each writing its disjoint byte range
  /// of the output through a RangeWritableFile — byte-identical to the
  /// serial pass, since records are bare keys and the sorted stream is
  /// unique. 0 and 1 keep the final pass serial. Stats are unaffected: the
  /// final pass still counts as one merge step writing every record once.
  size_t final_merge_threads = 1;

  /// Output placement of the final step. Default: append-create
  /// `output_path`. Positioned mode writes into the caller-assigned byte
  /// range of the *existing* output without truncating it — how each
  /// shard's merge lands directly in the sharded sorter's shared output.
  MergeOutputRange output_range;

  /// Top-K: when non-zero every merge pass keeps only `limit` records of
  /// its merged stream — the first (limit_last = false) or the last
  /// (limit_last = true). Intermediate passes clamp each input run to the
  /// K-record prefix/suffix that can still matter (metadata-only) and the
  /// final pass additionally prunes whole runs via sampled key bounds, so
  /// a limited merge reads strictly less than a full one whenever pruning
  /// bites. The output is the same bytes a full merge followed by
  /// head/tail truncation would produce. In positioned mode
  /// output_range.length must equal min(limit, total) records.
  uint64_t limit = 0;
  bool limit_last = false;
};

/// Merge-phase statistics.
struct MergeStats {
  uint64_t merge_steps = 0;      ///< k-way merge operations performed
  uint64_t records_written = 0;  ///< total records written (I/O volume proxy)
  uint64_t intermediate_runs = 0;

  /// Limited (top-K) merges only: runs the final pass never opened, and
  /// records its pruning excluded from the merge. (Intermediate passes
  /// prune too; their savings surface directly in bytes_read.) Both 0 for
  /// a full merge.
  uint64_t runs_pruned = 0;
  uint64_t records_pruned = 0;
};

/// Repeatedly performs fan-in-way merges until a single sorted sequence
/// remains, written to `output_path`. Runs are consumed in FIFO order, so
/// every record participates in roughly ceil(log_fanin(#runs)) passes.
/// With zero input runs an empty output file is produced.
///
/// The final pass is one Merge, or — with a pool and
/// final_merge_threads > 1 — that many concurrent partial merges over
/// key-domain slices, each writing its disjoint byte range of the output.
/// Output bytes are identical in every mode (records are bare keys, so the
/// fully sorted stream is unique). Only the final pass syncs its output to
/// stable storage; intermediate runs are scratch, re-read and deleted. On
/// a failed partitioned pass an output file this call created is removed
/// — a torn positioned file has holes, unlike the append path's clean
/// prefix — while a shared positioned output is left to its creator's
/// cleanup.
Status MergeRuns(Env* env, std::vector<RunInfo> runs,
                 const MergeOptions& options, const std::string& output_path,
                 MergeStats* stats);

}  // namespace twrs

#endif  // TWRS_MERGE_MERGE_PLAN_H_
