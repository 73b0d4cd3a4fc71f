#include "merge/kway_merge.h"

#include <limits>

#include "merge/loser_tree.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"

namespace twrs {

RunCursor::RunCursor(Env* env, RunInfo run, size_t block_bytes,
                     size_t prefetch_blocks)
    : env_(env),
      run_(std::move(run)),
      block_bytes_(block_bytes),
      prefetch_blocks_(prefetch_blocks) {}

Status RunCursor::Init() {
  return InitSlice(0, std::numeric_limits<uint64_t>::max());
}

Status RunCursor::InitSlice(uint64_t skip, uint64_t limit) {
  segment_ = 0;
  valid_ = false;
  forward_.reset();
  reverse_.reset();
  skip_remaining_ = skip;
  limit_remaining_ = limit;
  return Advance();
}

Status RunCursor::Next() { return Advance(); }

Status RunCursor::Advance() {
  if (limit_remaining_ == 0) {
    valid_ = false;
    return Status::OK();
  }
  for (;;) {
    // Pull from the currently open segment reader, if any.
    bool eof = true;
    if (forward_ != nullptr) {
      TWRS_RETURN_IF_ERROR(forward_->Next(&current_, &eof));
    } else if (reverse_ != nullptr) {
      TWRS_RETURN_IF_ERROR(reverse_->Next(&current_, &eof));
    }
    if (!eof) {
      valid_ = true;
      --limit_remaining_;
      return Status::OK();
    }
    forward_.reset();
    reverse_.reset();
    if (segment_ == run_.segments.size()) {
      valid_ = false;
      return Status::OK();
    }
    const RunSegment& seg = run_.segments[segment_++];
    if (seg.count == 0) continue;
    if (skip_remaining_ >= seg.count) {
      // The slice starts past this whole segment: account for it from its
      // metadata count without opening any file.
      skip_remaining_ -= seg.count;
      continue;
    }
    if (seg.reverse) {
      reverse_ = std::make_unique<ReverseRunReader>(env_, seg.path,
                                                    seg.num_files,
                                                    block_bytes_);
      TWRS_RETURN_IF_ERROR(reverse_->status());
      if (skip_remaining_ > 0) {
        TWRS_RETURN_IF_ERROR(reverse_->SkipRecords(skip_remaining_));
      }
    } else {
      std::unique_ptr<SequentialFile> file;
      TWRS_RETURN_IF_ERROR(env_->NewSequentialFile(seg.path, &file));
      if (skip_remaining_ > 0) {
        // Position before wrapping: a prefetcher starts pumping from its
        // construction point, so the skip must land on the raw handle.
        TWRS_RETURN_IF_ERROR(file->Skip(skip_remaining_ * kRecordBytes));
      }
      if (prefetch_blocks_ > 0) {
        file = std::make_unique<PrefetchingSequentialFile>(
            std::move(file), block_bytes_, prefetch_blocks_);
      }
      forward_ = std::make_unique<RecordReader>(std::move(file),
                                                block_bytes_);
      TWRS_RETURN_IF_ERROR(forward_->status());
    }
    skip_remaining_ = 0;
  }
}

namespace {

/// Batches progress increments so the merge loop pays one local add per
/// record and one atomic add per kBatch; the destructor flushes the
/// remainder on every exit path (success, cancel, error unwind).
class BatchedMergeProgress {
 public:
  static constexpr uint64_t kBatch = 1024;

  explicit BatchedMergeProgress(ProgressCounters* progress)
      : progress_(progress) {}

  ~BatchedMergeProgress() {
    if (progress_ != nullptr && pending_ > 0) {
      progress_->AddRecordsMerged(pending_);
    }
  }

  void Tick() {
    if (progress_ == nullptr) return;
    if (++pending_ == kBatch) {
      progress_->AddRecordsMerged(kBatch);
      pending_ = 0;
    }
  }

 private:
  ProgressCounters* progress_;
  uint64_t pending_ = 0;
};

/// Small-fan-in selector with the LoserTree interface: live cursors' heads
/// sit in a flat array scanned by MinIndexN after every change. Ties
/// resolve to the lowest array index and exhausted ways are compacted out
/// preserving order, so the selection order is the loser tree's (stable
/// lowest-way tie-break, see loser_tree.h).
class FlatSelector {
 public:
  explicit FlatSelector(const std::vector<RunCursor>& cursors)
      : level_(simd::ActiveDispatchLevel()),
        min_index_(level_ == simd::DispatchLevel::kAvx2
                       ? simd::internal::MinIndexNAvx2
                       : simd::internal::MinIndexNScalar) {
    for (size_t i = 0; i < cursors.size(); ++i) {
      if (!cursors[i].valid()) continue;
      keys_[live_] = cursors[i].key();
      ways_[live_] = i;
      ++live_;
    }
    Select();
  }

  // Dispatch is resolved once and the call counter batched: one atomic add
  // for the whole merge instead of one per selected record.
  ~FlatSelector() {
    simd::AddKernelCalls(simd::Kernel::kMinIndex, level_, selections_);
  }

  bool Exhausted() const { return live_ == 0; }
  size_t WinnerIndex() const { return ways_[winner_]; }
  Key WinnerKey() const { return keys_[winner_]; }

  void ReplaceWinner(Key key) {
    keys_[winner_] = key;
    Select();
  }

  void RetireWinner() {
    for (size_t j = winner_ + 1; j < live_; ++j) {
      keys_[j - 1] = keys_[j];
      ways_[j - 1] = ways_[j];
    }
    --live_;
    Select();
  }

 private:
  void Select() {
    if (live_ == 0) return;
    winner_ = min_index_(keys_, live_);
    ++selections_;
  }

  const simd::DispatchLevel level_;
  size_t (*const min_index_)(const Key*, size_t);
  Key keys_[kSmallMergeFanIn];
  size_t ways_[kSmallMergeFanIn];
  size_t live_ = 0;
  size_t winner_ = 0;
  uint64_t selections_ = 0;
};

/// The one merge loop, over either selector. Polls the cancel token every
/// record, serves `window`, and appends straight into `writer`; `*first`
/// and `*last` receive the first and last emitted keys.
template <typename Selector>
Status MergeLoop(Selector* selector, std::vector<RunCursor>* cursors,
                 const MergeWindow& window, const MergeIoOptions& io,
                 RecordWriter* writer, Key* first, Key* last) {
  uint64_t to_skip = window.skip;
  uint64_t remaining = window.limit;
  BatchedMergeProgress batched(io.progress);
  while (!selector->Exhausted() && remaining > 0) {
    if (IsCancelled(io.cancel)) return Status::Cancelled("merge cancelled");
    const size_t w = selector->WinnerIndex();
    if (to_skip > 0) {
      --to_skip;
    } else {
      const Key key = selector->WinnerKey();
      if (remaining == window.limit) *first = key;
      *last = key;
      TWRS_RETURN_IF_ERROR(writer->Append(key));
      batched.Tick();
      --remaining;
    }
    RunCursor& cursor = (*cursors)[w];
    TWRS_RETURN_IF_ERROR(cursor.Next());
    if (cursor.valid()) {
      selector->ReplaceWinner(cursor.key());
    } else {
      selector->RetireWinner();
    }
  }
  return Status::OK();
}

}  // namespace

Status Merge(std::vector<RunCursor>* cursors, const MergeWindow& window,
             const MergeIoOptions& io, MergeSink* sink, RunInfo* out) {
  RecordWriter writer(std::make_unique<MergeSinkFile>(sink), io.block_bytes);
  TWRS_RETURN_IF_ERROR(writer.status());
  Key first = 0;
  Key last = 0;
  const size_t k = cursors->size();
  if (k <= kSmallMergeFanIn) {
    FlatSelector selector(*cursors);
    TWRS_RETURN_IF_ERROR(
        MergeLoop(&selector, cursors, window, io, &writer, &first, &last));
  } else {
    LoserTree tree(k);
    for (size_t i = 0; i < k; ++i) {
      if ((*cursors)[i].valid()) tree.SetInitial(i, (*cursors)[i].key());
    }
    tree.Build();
    TWRS_RETURN_IF_ERROR(
        MergeLoop(&tree, cursors, window, io, &writer, &first, &last));
  }
  TWRS_RETURN_IF_ERROR(writer.Finish());
  if (out != nullptr) {
    RunInfo info;
    RunSegment seg;
    seg.count = writer.count();
    info.segments.push_back(std::move(seg));
    info.length = writer.count();
    info.min_key = first;
    info.max_key = last;
    *out = std::move(info);
  }
  return Status::OK();
}

Status RemoveRunFiles(Env* env, const RunInfo& run) {
  for (const RunSegment& seg : run.segments) {
    if (seg.reverse) {
      for (uint64_t f = 0; f < seg.num_files; ++f) {
        TWRS_RETURN_IF_ERROR(
            env->RemoveFile(ReverseRunWriter::FileName(seg.path, f)));
      }
    } else {
      TWRS_RETURN_IF_ERROR(env->RemoveFile(seg.path));
    }
  }
  return Status::OK();
}

}  // namespace twrs
