#include "io/merge_sink.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/stopwatch.h"

namespace twrs {

namespace {

/// Runs `fn`, recording its wall time into `histogram` when non-null.
template <typename Fn>
Status TimedFlush(LatencyHistogram* histogram, Fn&& fn) {
  if (histogram == nullptr) return fn();
  Stopwatch watch;
  Status s = fn();
  histogram->RecordSeconds(watch.ElapsedSeconds());
  return s;
}

}  // namespace

// ----------------------------------------------------------- AppendMergeSink

Status AppendMergeSink::Write(const void* data, size_t n) {
  TWRS_RETURN_IF_ERROR(status_);
  if (finished_) {
    status_ = Status::InvalidArgument("Write on finished AppendMergeSink");
    return status_;
  }
  status_ =
      TimedFlush(flush_histogram_, [&] { return file_->Append(data, n); });
  if (status_.ok()) bytes_written_ += n;
  return status_;
}

Status AppendMergeSink::Finish() {
  if (finished_) return status_;
  finished_ = true;
  if (status_.ok() && sync_on_finish_) status_ = file_->Sync();
  Status close_status = file_->Close();
  if (status_.ok()) status_ = std::move(close_status);
  return status_;
}

Status MakeAppendMergeSink(Env* env, const std::string& path, ThreadPool* pool,
                           size_t async_buffer_bytes,
                           std::unique_ptr<MergeSink>* out,
                           LatencyHistogram* flush_histogram,
                           bool sync_on_finish) {
  std::unique_ptr<WritableFile> file;
  TWRS_RETURN_IF_ERROR(env->NewWritableFile(path, &file));
  if (pool != nullptr) {
    // Time the background flushes, not the sink's memcpy-into-buffer
    // Appends: the histogram should see real write I/O.
    auto async = std::make_unique<AsyncWritableFile>(std::move(file), pool,
                                                     async_buffer_bytes);
    async->set_flush_histogram(flush_histogram);
    *out = std::make_unique<AppendMergeSink>(std::move(async), nullptr,
                                             sync_on_finish);
    return Status::OK();
  }
  *out = std::make_unique<AppendMergeSink>(std::move(file), flush_histogram,
                                           sync_on_finish);
  return Status::OK();
}

// ------------------------------------------------------------ RangeMergeSink

RangeMergeSink::RangeMergeSink(std::unique_ptr<RandomRWFile> file,
                               uint64_t offset, uint64_t length,
                               ThreadPool* pool, size_t buffer_bytes,
                               LatencyHistogram* flush_histogram,
                               bool sync_on_finish)
    : file_(std::move(file)),
      offset_(offset),
      length_(length),
      pool_(pool),
      flush_histogram_(flush_histogram),
      sync_on_finish_(sync_on_finish),
      flush_pos_(offset) {
  if (pool_ != nullptr) {
    const size_t n = std::max<size_t>(1, buffer_bytes);
    active_.resize(n);
    inflight_.resize(n);
  }
}

RangeMergeSink::~RangeMergeSink() {
  if (finished_) return;
  // Error-path unwinding: the merged bytes are being discarded, so the
  // active buffer is dropped rather than flushed; only quiesce the
  // background write and release the handle.
  TWRS_IGNORE_STATUS(WaitForInflight());
  TWRS_IGNORE_STATUS(file_->Close());
}

Status RangeMergeSink::WaitForInflight() {
  if (pending_.valid()) {
    Status s = pending_.Wait();
    pending_ = TaskHandle();
    if (status_.ok()) status_ = std::move(s);
  }
  return status_;
}

Status RangeMergeSink::RotateAndFlush() {
  TWRS_RETURN_IF_ERROR(WaitForInflight());
  std::swap(active_, inflight_);
  inflight_used_ = active_used_;
  active_used_ = 0;
  const uint64_t pos = flush_pos_;
  flush_pos_ += inflight_used_;
  // High priority, as in AsyncWritableFile: a flush parked behind
  // long-running tasks would stall the next rotation and forfeit the
  // write overlap.
  pending_ = pool_->Submit(
      [this, pos] {
        return TimedFlush(flush_histogram_, [this, pos] {
          return file_->WriteAt(pos, inflight_.data(), inflight_used_);
        });
      },
      TaskPriority::kHigh);
  return Status::OK();
}

Status RangeMergeSink::Write(const void* data, size_t n) {
  TWRS_RETURN_IF_ERROR(status_);
  if (finished_) {
    status_ = Status::InvalidArgument("Write on finished RangeMergeSink");
    return status_;
  }
  if (bytes_written_ + n > length_) {
    status_ = Status::InvalidArgument(
        "RangeMergeSink write beyond its assigned range of " +
        std::to_string(length_) + " bytes");
    return status_;
  }
  if (pool_ == nullptr) {
    status_ = TimedFlush(flush_histogram_, [&] {
      return file_->WriteAt(offset_ + bytes_written_, data, n);
    });
    if (status_.ok()) bytes_written_ += n;
    return status_;
  }
  const uint8_t* p = static_cast<const uint8_t*>(data);
  bytes_written_ += n;
  while (n > 0) {
    const size_t space = active_.size() - active_used_;
    const size_t take = std::min(space, n);
    std::memcpy(active_.data() + active_used_, p, take);
    active_used_ += take;
    p += take;
    n -= take;
    if (active_used_ == active_.size()) {
      Status s = RotateAndFlush();
      if (!s.ok()) {
        if (status_.ok()) status_ = s;
        return status_;
      }
    }
  }
  return Status::OK();
}

Status RangeMergeSink::Finish() {
  if (finished_) return status_;
  finished_ = true;
  TWRS_IGNORE_STATUS(WaitForInflight());  // folded into status_ below
  if (status_.ok() && active_used_ > 0) {
    status_ = TimedFlush(flush_histogram_, [this] {
      return file_->WriteAt(flush_pos_, active_.data(), active_used_);
    });
    flush_pos_ += active_used_;
    active_used_ = 0;
  }
  if (status_.ok() && bytes_written_ != length_) {
    // An under- or over-filled range would leave a hole (or tear a
    // neighbor) in the shared output.
    status_ = Status::Corruption(
        "range merge wrote " + std::to_string(bytes_written_) + " of " +
        std::to_string(length_) + " assigned bytes");
  }
  if (status_.ok() && sync_on_finish_) status_ = file_->Sync();
  Status close_status = file_->Close();
  if (status_.ok()) status_ = std::move(close_status);
  return status_;
}

Status MakeRangeMergeSink(Env* env, const std::string& path, uint64_t offset,
                          uint64_t length, ThreadPool* pool,
                          size_t buffer_bytes, std::unique_ptr<MergeSink>* out,
                          LatencyHistogram* flush_histogram,
                          bool sync_on_finish) {
  std::unique_ptr<RandomRWFile> file;
  TWRS_RETURN_IF_ERROR(env->ReopenRandomRWFile(path, &file));
  *out = std::make_unique<RangeMergeSink>(std::move(file), offset, length,
                                          pool, buffer_bytes, flush_histogram,
                                          sync_on_finish);
  return Status::OK();
}

}  // namespace twrs
