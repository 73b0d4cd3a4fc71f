#ifndef TWRS_MERGE_KWAY_MERGE_H_
#define TWRS_MERGE_KWAY_MERGE_H_

#include <memory>
#include <vector>

#include "core/record.h"
#include "core/run_sink.h"
#include "exec/thread_pool.h"
#include "io/env.h"
#include "io/record_io.h"
#include "io/reverse_run_file.h"
#include "obs/latency_histogram.h"
#include "obs/progress.h"
#include "util/cancel.h"
#include "util/status.h"

namespace twrs {

/// I/O configuration of one k-way merge.
struct MergeIoOptions {
  /// Read/write buffer per stream.
  size_t block_bytes = kDefaultBlockBytes;

  /// Blocks of read-ahead per forward input stream (0 = synchronous reads).
  /// Reverse-format segments use positioned reads and stay synchronous.
  size_t prefetch_blocks = 0;

  /// When non-null, merge outputs are flushed in the background on this
  /// pool, overlapping loser-tree work with output I/O.
  ThreadPool* pool = nullptr;

  /// Cooperative cancellation: when non-null, the merge loop polls the
  /// token every record and unwinds with Status::Cancelled once it fires.
  /// Must outlive the merge.
  const CancelToken* cancel = nullptr;

  /// Live progress: when non-null, the merge loop adds every emitted
  /// record (in batches, to keep the hot path cheap) to
  /// `progress->AddRecordsMerged`. Must outlive the merge.
  ProgressCounters* progress = nullptr;

  /// When non-null, the wall time of every flush of a merge output is
  /// recorded here. Must outlive the merge.
  LatencyHistogram* flush_histogram = nullptr;
};

/// Streaming cursor over one generated run: iterates its segments in order,
/// reading forward segments with RecordReader and decreasing segments
/// through the Appendix-A reverse reader, yielding a single non-decreasing
/// key sequence. With `prefetch_blocks` > 0, forward segments read through a
/// PrefetchingSequentialFile that keeps that many blocks in flight.
class RunCursor {
 public:
  RunCursor(Env* env, RunInfo run, size_t block_bytes = kDefaultBlockBytes,
            size_t prefetch_blocks = 0);

  /// Opens the first segment and positions on the first record.
  Status Init();

  /// Positions on record `skip` of the run (0-based across segments) and
  /// caps iteration at `limit` records — the ranged cursor of a partial
  /// merge. Whole segments before the slice are skipped using their
  /// metadata counts without opening them; within the boundary segment,
  /// forward files skip by byte offset and reverse streams through
  /// ReverseRunReader::SkipRecords, so positioning costs header reads and
  /// seeks, not a prefix scan.
  Status InitSlice(uint64_t skip, uint64_t limit);

  bool valid() const { return valid_; }

  /// Current key. Requires valid().
  Key key() const { return current_; }

  /// Advances to the next record; valid() turns false at the end.
  Status Next();

  const RunInfo& run() const { return run_; }

 private:
  Status Advance();

  Env* env_;
  RunInfo run_;
  size_t block_bytes_;
  size_t prefetch_blocks_;
  size_t segment_ = 0;
  std::unique_ptr<RecordReader> forward_;
  std::unique_ptr<ReverseRunReader> reverse_;
  uint64_t skip_remaining_ = 0;
  uint64_t limit_remaining_ = 0;
  Key current_ = 0;
  bool valid_ = false;
};

/// No-limit sentinel of MergeWindow: "emit until every cursor drains".
inline constexpr uint64_t kMergeNoLimit = ~uint64_t{0};

/// Contiguous window of a merged stream: drop the first `skip` records of
/// the merge order, then emit at most `limit`. The merge loop stops dead
/// once the window is served — with a limit of K, a top-K merge does k-way
/// work proportional to skip+K, not to the input volume. Skipped records
/// are merged (their cursors advance) but never reach the sink or the
/// progress counters. The default window is the whole stream.
struct MergeWindow {
  uint64_t skip = 0;
  uint64_t limit = kMergeNoLimit;
};

/// The k-way merge (§2.1.2): merges already-initialized (possibly sliced,
/// see RunCursor::InitSlice) cursors into `writer` as one non-decreasing
/// record stream, emitting only `window` of the merge order. Selects the
/// next record with a loser tree that breaks ties toward the lowest cursor
/// index, so equal keys leave in cursor order. `io` supplies
/// cancellation and progress. `writer` is one the caller opened (see
/// OpenRecordWriter); Merge finishes it, so a positioned range's
/// exact-fill check runs before this returns. `*out` (if non-null)
/// receives the record count and key bounds as a one-segment run whose
/// path is left empty for the caller, who knows the backing file.
Status Merge(std::vector<RunCursor>* cursors, const MergeWindow& window,
             const MergeIoOptions& io, RecordWriter* writer, RunInfo* out);

/// Deletes every physical file of a run (reverse segments span several).
Status RemoveRunFiles(Env* env, const RunInfo& run);

}  // namespace twrs

#endif  // TWRS_MERGE_KWAY_MERGE_H_
