#include "merge/merge_plan.h"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/async_io.h"
#include "merge/partitioned_merge.h"
#include "shard/splitters.h"

namespace twrs {

namespace {

/// Splitter candidates sampled for a partitioned final pass, and the seed
/// that keeps the sample (and with it the partition layout) deterministic.
constexpr size_t kFinalSampleSize = 256;
constexpr uint64_t kFinalSampleSeed = 1;

/// One run's slice of a merge: `skip` records in, `length` records long.
struct RunSlice {
  uint64_t skip = 0;
  uint64_t length = 0;
};

/// Waits for every task, then reports the first failure — so no task still
/// references the caller's state when its frame unwinds.
Status WaitForAll(std::vector<TaskHandle>* handles) {
  Status first_error;
  for (TaskHandle& handle : *handles) {
    Status s = handle.Wait();
    if (!s.ok() && first_error.ok()) first_error = std::move(s);
  }
  return first_error;
}

uint64_t TotalRecords(const std::vector<RunInfo>& runs) {
  uint64_t total = 0;
  for (const RunInfo& run : runs) total += run.length;
  return total;
}

/// Records a merge of `runs` keeps under a top-K `limit` (0 = no limit).
uint64_t KeptRecords(const std::vector<RunInfo>& runs, uint64_t limit) {
  const uint64_t total = TotalRecords(runs);
  return limit > 0 ? std::min(limit, total) : total;
}

/// The K-prefix/suffix clamp: only a run's own first (last, for
/// `take_last`) `kept` records can appear in the kept window of the merged
/// stream — each is preceded (followed) within its run by enough records
/// to push the rest out. The clamp is pure segment metadata; the dropped
/// prefix/suffix is never read. With `kept` = every record, each run is
/// whole.
std::vector<RunSlice> ClampToKept(const std::vector<RunInfo>& runs,
                                  uint64_t kept, bool take_last) {
  std::vector<RunSlice> slices(runs.size());
  for (size_t r = 0; r < runs.size(); ++r) {
    slices[r].length = std::min(runs[r].length, kept);
    slices[r].skip = take_last ? runs[r].length - slices[r].length : 0;
  }
  return slices;
}

/// Merges the non-empty `slices` of `runs` into `path`, keeping `kept`
/// records of the merged stream: its first, or its last for `take_last`.
/// The output is append-created, or fills `range` of the existing file
/// when positioned; `sync` forces it to stable storage before closing.
/// `*out` (if non-null) receives the merged run.
Status MergeSlices(Env* env, const std::vector<RunInfo>& runs,
                   const std::vector<RunSlice>& slices, uint64_t kept,
                   bool take_last, const MergeIoOptions& io,
                   const std::string& path, const MergeOutputRange& range,
                   bool sync, RunInfo* out) {
  std::vector<RunCursor> cursors;
  cursors.reserve(runs.size());
  uint64_t sliced_total = 0;
  for (size_t r = 0; r < runs.size(); ++r) {
    if (slices[r].length == 0) continue;
    cursors.emplace_back(env, runs[r], io.block_bytes, io.prefetch_blocks);
    TWRS_RETURN_IF_ERROR(
        cursors.back().InitSlice(slices[r].skip, slices[r].length));
    sliced_total += slices[r].length;
  }
  MergeWindow window;
  window.limit = kept;
  if (take_last && sliced_total > kept) window.skip = sliced_total - kept;
  std::unique_ptr<RecordWriter> writer;
  TWRS_RETURN_IF_ERROR(OpenRecordWriter(env, path, range, io.block_bytes,
                                        io.pool, io.flush_histogram, sync,
                                        &writer));
  TWRS_RETURN_IF_ERROR(Merge(&cursors, window, io, writer.get(), out));
  if (out != nullptr) out->segments[0].path = path;
  return Status::OK();
}

/// Tightens the clamps of a serial limited final pass with sampled key
/// bounds: the smallest sampled key with >= kept records strictly below it
/// bounds the ascending selection from above, so each run needs only its
/// records below it — and a run left with none is pruned outright, its
/// files never opened. (Mirrored around >= for take_last.) The bound is an
/// optimization, never a correctness requirement: the merge window serves
/// exactly `kept` records from whatever survives the clamps.
Status RefineByKeyBounds(Env* env, const std::vector<RunInfo>& runs,
                         uint64_t kept, bool take_last, size_t block_bytes,
                         std::vector<RunSlice>* slices) {
  const size_t n = runs.size();
  const uint64_t total_records = TotalRecords(runs);
  // Candidate bounds: a modest sample is plenty — any candidate that
  // qualifies prunes correctly, a missed tighter bound only costs I/O.
  std::vector<Key> sample;
  TWRS_RETURN_IF_ERROR(SampleRunKeys(env, runs, 64, kFinalSampleSeed,
                                     &sample));
  std::sort(sample.begin(), sample.end());
  sample.erase(std::unique(sample.begin(), sample.end()), sample.end());
  // Probing a candidate costs I/O in every run (a block binary search per
  // forward segment, a bounded ascending scan per reverse segment), and
  // that cost grows with the candidate's distance from the boundary end of
  // the key space. So probe outward from that end in doubling chunks and
  // stop at the first candidate that qualifies — it is the tightest
  // qualifying bound in the whole sample, and candidates far from the
  // boundary are never touched when a near one qualifies. If none
  // qualifies the clamps stand unrefined.
  size_t chunk = 8;
  for (size_t begin = 0; begin < sample.size(); chunk *= 2) {
    const size_t end = std::min(sample.size(), begin + chunk);
    std::vector<Key> probe;
    if (!take_last) {
      probe.assign(sample.begin() + static_cast<ptrdiff_t>(begin),
                   sample.begin() + static_cast<ptrdiff_t>(end));
    } else {
      probe.assign(sample.end() - static_cast<ptrdiff_t>(end),
                   sample.end() - static_cast<ptrdiff_t>(begin));
    }
    std::vector<std::vector<uint64_t>> below(n);
    std::vector<uint64_t> total_below(probe.size(), 0);
    for (size_t r = 0; r < n; ++r) {
      TWRS_RETURN_IF_ERROR(
          PartitionPointsForRun(env, runs[r], probe, block_bytes, &below[r]));
      for (size_t s = 0; s < probe.size(); ++s) {
        total_below[s] += below[r][s];
      }
    }
    if (!take_last) {
      for (size_t s = 0; s < probe.size(); ++s) {
        if (total_below[s] < kept) continue;
        // Every kept record is strictly below probe[s].
        for (size_t r = 0; r < n; ++r) {
          (*slices)[r].length = std::min((*slices)[r].length, below[r][s]);
        }
        return Status::OK();
      }
    } else {
      for (size_t s = probe.size(); s-- > 0;) {
        if (total_records - total_below[s] < kept) continue;
        // Every kept record is at or above probe[s].
        for (size_t r = 0; r < n; ++r) {
          RunSlice& slice = (*slices)[r];
          slice.skip = std::max(slice.skip, below[r][s]);
          slice.length = runs[r].length - slice.skip;
        }
        return Status::OK();
      }
    }
    begin = end;
  }
  return Status::OK();
}

/// The partitioned final pass: one partial merge per key-domain slice
/// between consecutive `splitters`, all on the pool, each writing its
/// exact byte range of the output. Partitions wholly outside the kept
/// window of a limited merge are dropped — their runs' slices are never
/// read, the partitioned form of run pruning — and the straddling one is
/// clamped to the K-record boundary.
Status PartitionedMerge(Env* env, const std::vector<RunInfo>& runs,
                        const std::vector<Key>& splitters,
                        const MergeOptions& options, uint64_t kept,
                        const std::string& output_path, MergeStats* stats) {
  const MergeIoOptions& io = options.io;
  const uint64_t total_records = TotalRecords(runs);
  // Exact slice boundaries: for each run, the record index where every
  // splitter's key domain begins. Runs are independent, and the
  // reverse-segment path is a real sequential scan (it cannot stop before
  // the largest splitter), so the per-run searches fan out on the pool
  // instead of running serially in front of the partial merges.
  const size_t partitions = splitters.size() + 1;
  std::vector<std::vector<uint64_t>> below(runs.size());
  std::vector<TaskHandle> handles;
  handles.reserve(std::max(runs.size(), partitions));
  for (size_t r = 0; r < runs.size(); ++r) {
    const RunInfo* run = &runs[r];
    std::vector<uint64_t>* run_below = &below[r];
    handles.push_back(io.pool->Submit([env, run, &splitters, &io, run_below] {
      return PartitionPointsForRun(env, *run, splitters, io.block_bytes,
                                   run_below);
    }));
  }
  TWRS_RETURN_IF_ERROR(WaitForAll(&handles));
  handles.clear();
  std::vector<std::vector<RunSlice>> slices(partitions);
  std::vector<uint64_t> partition_records(partitions, 0);
  for (size_t j = 0; j < partitions; ++j) {
    slices[j].resize(runs.size());
    for (size_t r = 0; r < runs.size(); ++r) {
      const uint64_t lo = j == 0 ? 0 : below[r][j - 1];
      const uint64_t hi = j + 1 == partitions ? runs[r].length : below[r][j];
      slices[j][r].skip = lo;
      slices[j][r].length = hi - lo;
      partition_records[j] += hi - lo;
    }
  }

  bool created = false;
  if (!options.output_range.positioned) {
    // Truncate-create the shared output exactly once; every partition then
    // reopens it and extends it by writing its range.
    std::unique_ptr<RandomRWFile> file;
    TWRS_RETURN_IF_ERROR(env->NewRandomRWFile(output_path, &file));
    TWRS_RETURN_IF_ERROR(file->Close());
    created = true;
  }

  // The kept window of the merged stream in record coordinates; a full
  // merge keeps everything. Its intersection with a partition is a prefix
  // of it (ascending) or a suffix (take_last), so each partition merges
  // with the same first/last-K window as a whole limited merge.
  const bool take_last = options.limit_last;
  const uint64_t win_lo = take_last ? total_records - kept : 0;
  const uint64_t win_hi = win_lo + kept;
  std::vector<bool> run_used(runs.size(), false);
  uint64_t p_lo = 0;
  for (size_t j = 0; j < partitions; ++j) {
    const uint64_t p_hi = p_lo + partition_records[j];
    const uint64_t inter_lo = std::max(p_lo, win_lo);
    const uint64_t inter_hi = std::min(p_hi, win_hi);
    p_lo = p_hi;
    if (inter_lo >= inter_hi) {
      stats->records_pruned += partition_records[j];
      continue;
    }
    for (size_t r = 0; r < runs.size(); ++r) {
      if (slices[j][r].length > 0) run_used[r] = true;
    }
    const uint64_t partition_kept = inter_hi - inter_lo;
    MergeOutputRange range;
    range.positioned = true;
    range.offset =
        options.output_range.offset + (inter_lo - win_lo) * kRecordBytes;
    range.length = partition_kept * kRecordBytes;
    const std::vector<RunSlice>* partition_slices = &slices[j];
    handles.push_back(io.pool->Submit([env, &runs, partition_slices,
                                       partition_kept, take_last, &io,
                                       &output_path, range] {
      return MergeSlices(env, runs, *partition_slices, partition_kept,
                         take_last, io, output_path, range, /*sync=*/true,
                         nullptr);
    }));
  }
  Status first_error = WaitForAll(&handles);
  if (!first_error.ok()) {
    // A torn positioned file has holes rather than a clean prefix; remove
    // it when this call created it (a shared output belongs to its
    // creator's cleanup).
    if (created) TWRS_IGNORE_STATUS(env->RemoveFile(output_path));
    return first_error;
  }
  if (kept < total_records) {
    for (size_t r = 0; r < runs.size(); ++r) {
      if (!run_used[r] && runs[r].length > 0) ++stats->runs_pruned;
    }
  }
  stats->records_written += kept;
  return Status::OK();
}

/// The final pass of MergeRuns: one serial merge — clamped and pruned when
/// limited — or the partitioned merge when a pool, final_merge_threads and
/// the data volume all allow it.
Status FinalMerge(Env* env, const std::vector<RunInfo>& runs,
                  const MergeOptions& options, const std::string& output_path,
                  MergeStats* stats) {
  const uint64_t total_records = TotalRecords(runs);
  const uint64_t kept = KeptRecords(runs, options.limit);
  const uint64_t kept_bytes = kept * kRecordBytes;
  if (options.output_range.positioned &&
      options.output_range.length != kept_bytes) {
    return Status::Corruption(
        "final merge produces " + std::to_string(kept_bytes) +
        " bytes but was assigned a range of " +
        std::to_string(options.output_range.length));
  }

  // Decide the effective partition count. Everything that degenerates —
  // no pool, one run, tiny inputs, splitters collapsed by skew — falls
  // back to a single merge, which is always correct. Splitter sampling
  // and boundary location cost positioned probes (seeks on a spinning
  // disk), a fixed cost per partition: a partition must span at least a
  // few I/O blocks to amortize it, so the requested count is clamped to
  // what the data volume supports before any probe is paid. For a limited
  // merge the volume that gets written is the kept window, so a small K
  // always degenerates to the (pruned) serial merge.
  size_t partitions_wanted = 0;
  if (options.final_merge_threads > 1 && options.io.pool != nullptr &&
      runs.size() > 1) {
    const uint64_t min_partition_bytes =
        16 * std::max<size_t>(1, options.io.block_bytes);
    partitions_wanted = static_cast<size_t>(std::min<uint64_t>(
        options.final_merge_threads, kept_bytes / min_partition_bytes));
  }
  if (partitions_wanted > 1) {
    // More probes than ~64 per splitter stop improving balance; tying the
    // sample to the clamped partition count keeps the fixed seek cost
    // proportional to the parallelism actually bought.
    std::vector<Key> sample;
    TWRS_RETURN_IF_ERROR(SampleRunKeys(
        env, runs, std::min<size_t>(kFinalSampleSize, 64 * partitions_wanted),
        kFinalSampleSeed, &sample));
    const std::vector<Key> splitters =
        PickSplitters(std::move(sample), partitions_wanted);
    if (!splitters.empty()) {
      return PartitionedMerge(env, runs, splitters, options, kept,
                              output_path, stats);
    }
  }

  std::vector<RunSlice> slices = ClampToKept(runs, kept, options.limit_last);
  if (kept < total_records && runs.size() > 1) {
    TWRS_RETURN_IF_ERROR(RefineByKeyBounds(env, runs, kept,
                                           options.limit_last,
                                           options.io.block_bytes, &slices));
  }
  for (size_t r = 0; r < runs.size(); ++r) {
    stats->records_pruned += runs[r].length - slices[r].length;
    if (slices[r].length == 0 && runs[r].length > 0) ++stats->runs_pruned;
  }
  RunInfo merged;
  TWRS_RETURN_IF_ERROR(MergeSlices(env, runs, slices, kept,
                                   options.limit_last, options.io,
                                   output_path, options.output_range,
                                   /*sync=*/true, &merged));
  stats->records_written += merged.length;
  return Status::OK();
}

/// One fan-in-way intermediate merge with its inputs and output slot.
struct LeafMerge {
  std::vector<RunInfo> inputs;
  std::string output_path;
  RunInfo merged;
};

/// Runs one intermediate merge: clamped to the records a limited merge can
/// still use, and never synced — intermediate runs are scratch.
Status MergeLeaf(Env* env, const MergeOptions& options, LeafMerge* leaf) {
  const uint64_t kept = KeptRecords(leaf->inputs, options.limit);
  return MergeSlices(env, leaf->inputs,
                     ClampToKept(leaf->inputs, kept, options.limit_last),
                     kept, options.limit_last, options.io, leaf->output_path,
                     MergeOutputRange(), /*sync=*/false, &leaf->merged);
}

}  // namespace

Status MergeRuns(Env* env, std::vector<RunInfo> runs,
                 const MergeOptions& options, const std::string& output_path,
                 MergeStats* stats) {
  if (options.fan_in < 2) {
    return Status::InvalidArgument("fan_in must be at least 2");
  }
  MergeStats local;
  std::deque<RunInfo> queue(runs.begin(), runs.end());
  uint64_t temp_counter = 0;

  if (queue.empty()) {
    if (options.output_range.positioned) {
      // The shared output already exists; an empty merge owns an empty
      // range and must not touch (let alone truncate) the file.
      if (options.output_range.length != 0) {
        return Status::Corruption(
            "empty merge assigned a non-empty output range");
      }
      if (stats != nullptr) *stats = local;
      return Status::OK();
    }
    // Sorting an empty input produces an empty output file.
    std::unique_ptr<RecordWriter> writer;
    TWRS_RETURN_IF_ERROR(OpenRecordWriter(
        env, output_path, MergeOutputRange(), options.io.block_bytes,
        options.io.pool, options.io.flush_histogram,
        /*sync_on_finish=*/true, &writer));
    TWRS_RETURN_IF_ERROR(writer->Finish());
    if (stats != nullptr) *stats = local;
    return Status::OK();
  }

  const bool parallel = options.io.pool != nullptr;

  // Intermediate passes: shrink the queue until one merge reaches the
  // final output. Note a single run still goes through one "merge" so the
  // output is always a plain forward record file.
  //
  // Both modes consume the queue in FIFO order and append merge outputs in
  // batch order, so the sequence of batch compositions — and with it the
  // stats and the bytes written — is identical. The parallel mode merely
  // dispatches every batch takeable at one level onto the pool at once
  // instead of merging it inline.
  while (queue.size() > options.fan_in) {
    if (IsCancelled(options.io.cancel)) {
      return Status::Cancelled("merge cancelled");
    }
    std::vector<LeafMerge> level;
    do {
      LeafMerge leaf;
      leaf.inputs.reserve(options.fan_in);
      for (size_t i = 0; i < options.fan_in; ++i) {
        leaf.inputs.push_back(std::move(queue.front()));
        queue.pop_front();
      }
      leaf.output_path = options.temp_dir + "/" + options.temp_prefix +
                         "_tmp" + std::to_string(temp_counter++);
      level.push_back(std::move(leaf));
    } while (parallel && queue.size() > options.fan_in);

    std::vector<TaskHandle> handles;
    for (LeafMerge& leaf : level) {
      if (parallel) {
        handles.push_back(options.io.pool->Submit(
            [env, &options, &leaf] { return MergeLeaf(env, options, &leaf); }));
      } else {
        TWRS_RETURN_IF_ERROR(MergeLeaf(env, options, &leaf));
      }
    }
    // Every result is in before the queue is touched.
    TWRS_RETURN_IF_ERROR(WaitForAll(&handles));
    for (LeafMerge& leaf : level) {
      ++local.merge_steps;
      ++local.intermediate_runs;
      local.records_written += leaf.merged.length;
      if (options.remove_inputs) {
        for (const RunInfo& run : leaf.inputs) {
          TWRS_RETURN_IF_ERROR(RemoveRunFiles(env, run));
        }
      }
      queue.push_back(std::move(leaf.merged));
    }
  }

  const std::vector<RunInfo> final_batch(queue.begin(), queue.end());
  TWRS_RETURN_IF_ERROR(
      FinalMerge(env, final_batch, options, output_path, &local));
  ++local.merge_steps;
  if (options.remove_inputs) {
    for (const RunInfo& run : final_batch) {
      TWRS_RETURN_IF_ERROR(RemoveRunFiles(env, run));
    }
  }
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

}  // namespace twrs
