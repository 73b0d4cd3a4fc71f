#include "exec/async_io.h"

#include <algorithm>
#include <cstring>

#include "obs/latency_histogram.h"
#include "util/stopwatch.h"

namespace twrs {

namespace {

/// Runs `fn`, recording its wall time into `histogram` when non-null.
template <typename Fn>
Status TimedIo(LatencyHistogram* histogram, Fn&& fn) {
  if (histogram == nullptr) return fn();
  Stopwatch watch;
  Status s = fn();
  histogram->RecordSeconds(watch.ElapsedSeconds());
  return s;
}

}  // namespace

// --------------------------------------------------------- AsyncWritableFile

AsyncWritableFile::AsyncWritableFile(std::unique_ptr<WritableFile> base,
                                     ThreadPool* pool, size_t buffer_bytes)
    : base_(std::move(base)), pool_(pool) {
  if (pool_ != nullptr) {
    const size_t n = std::max<size_t>(1, buffer_bytes);
    active_.resize(n);
    inflight_.resize(n);
  }
}

AsyncWritableFile::~AsyncWritableFile() {
  // An error surfacing this late has nowhere to go; callers that care
  // about the flush outcome call Close() themselves.
  TWRS_IGNORE_STATUS(Close());
}

Status AsyncWritableFile::WaitForInflight() {
  if (pending_.valid()) {
    Status s = pending_.Wait();
    pending_ = TaskHandle();
    if (status_.ok()) status_ = std::move(s);
  }
  return status_;
}

Status AsyncWritableFile::RotateAndFlush() {
  TWRS_RETURN_IF_ERROR(WaitForInflight());
  std::swap(active_, inflight_);
  inflight_used_ = active_used_;
  active_used_ = 0;
  // High priority: a flush stuck behind a level of long-running normal
  // tasks would make the next rotation wait (run it inline) and forfeit
  // the write overlap this decorator exists for.
  pending_ = pool_->Submit(
      [this] {
        return TimedIo(flush_histogram_, [this] {
          return base_->Append(inflight_.data(), inflight_used_);
        });
      },
      TaskPriority::kHigh);
  return Status::OK();
}

Status AsyncWritableFile::Append(const void* data, size_t n) {
  TWRS_RETURN_IF_ERROR(status_);
  if (closed_) {
    status_ = Status::InvalidArgument("Append on closed AsyncWritableFile");
    return status_;
  }
  if (pool_ == nullptr) {
    status_ =
        TimedIo(flush_histogram_, [&] { return base_->Append(data, n); });
    return status_;
  }
  const uint8_t* p = static_cast<const uint8_t*>(data);
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

Status AsyncWritableFile::Sync() {
  TWRS_RETURN_IF_ERROR(status_);
  if (closed_) {
    status_ = Status::InvalidArgument("Sync on closed AsyncWritableFile");
    return status_;
  }
  if (pool_ != nullptr) {
    TWRS_RETURN_IF_ERROR(WaitForInflight());
    if (active_used_ > 0) {
      status_ = TimedIo(flush_histogram_, [this] {
        return base_->Append(active_.data(), active_used_);
      });
      active_used_ = 0;
      TWRS_RETURN_IF_ERROR(status_);
    }
  }
  status_ = base_->Sync();
  return status_;
}

Status AsyncWritableFile::Close() {
  if (closed_) return status_;
  closed_ = true;
  TWRS_IGNORE_STATUS(WaitForInflight());  // folded into status_ below
  if (status_.ok() && active_used_ > 0) {
    status_ = TimedIo(flush_histogram_, [this] {
      return base_->Append(active_.data(), active_used_);
    });
    active_used_ = 0;
  }
  Status close_status = base_->Close();
  if (status_.ok()) status_ = std::move(close_status);
  return status_;
}

// -------------------------------------------------- PrefetchingSequentialFile

PrefetchingSequentialFile::PrefetchingSequentialFile(
    std::unique_ptr<SequentialFile> base, size_t block_bytes,
    size_t prefetch_blocks)
    : base_(std::move(base)),
      block_bytes_(std::max<size_t>(1, block_bytes)),
      queue_(std::max<size_t>(1, prefetch_blocks)) {
  pump_ = std::thread([this] { Pump(); });
}

PrefetchingSequentialFile::~PrefetchingSequentialFile() {
  queue_.Close();  // unblocks a pump stalled on Push
  pump_.join();
}

void PrefetchingSequentialFile::Pump() {
  for (;;) {
    Block block;
    block.data.resize(block_bytes_);
    size_t got = 0;
    block.status = base_->Read(block.data.data(), block_bytes_, &got);
    block.data.resize(block.status.ok() ? got : 0);
    block.last = !block.status.ok() || got < block_bytes_;
    const bool last = block.last;
    if (!queue_.Push(std::move(block))) return;  // consumer went away
    if (last) return;
  }
}

bool PrefetchingSequentialFile::AdvanceBlock() {
  if (!error_.ok()) return false;
  if (current_.last) return false;  // EOF already delivered
  if (!queue_.Pop(&current_)) {
    current_.last = true;  // closed queue == EOF
    current_.data.clear();
    pos_ = 0;
    return false;
  }
  pos_ = 0;
  if (!current_.status.ok()) error_ = current_.status;
  return !current_.data.empty();
}

Status PrefetchingSequentialFile::Read(void* out, size_t n,
                                       size_t* bytes_read) {
  uint8_t* dst = static_cast<uint8_t*>(out);
  size_t total = 0;
  while (total < n) {
    const size_t avail = current_.data.size() - pos_;
    if (avail == 0) {
      if (AdvanceBlock()) continue;
      // A pending error must not masquerade as a short read — the
      // SequentialFile contract makes *bytes_read < n mean EOF, and a
      // consumer that stops there would silently truncate the stream. The
      // error therefore overrides any partial tail this call holds.
      if (!error_.ok()) return error_;
      break;  // EOF
    }
    const size_t take = std::min(avail, n - total);
    std::memcpy(dst + total, current_.data.data() + pos_, take);
    pos_ += take;
    total += take;
  }
  *bytes_read = total;
  return Status::OK();
}

Status PrefetchingSequentialFile::Skip(uint64_t n) {
  while (n > 0) {
    const size_t avail = current_.data.size() - pos_;
    if (avail == 0) {
      if (AdvanceBlock()) continue;
      if (!error_.ok()) return error_;
      return Status::OK();  // skipping past EOF is a no-op, as in MemEnv
    }
    const size_t take =
        static_cast<size_t>(std::min<uint64_t>(avail, n));
    pos_ += take;
    n -= take;
  }
  return Status::OK();
}

// ---------------------------------------------------------------- helpers

Status MakeAsyncRecordWriter(Env* env, const std::string& path,
                             size_t block_bytes, ThreadPool* pool,
                             size_t async_buffer_bytes,
                             std::unique_ptr<RecordWriter>* out,
                             LatencyHistogram* flush_histogram) {
  if (pool == nullptr) {
    *out = std::make_unique<RecordWriter>(env, path, block_bytes);
  } else {
    std::unique_ptr<WritableFile> file;
    TWRS_RETURN_IF_ERROR(env->NewWritableFile(path, &file));
    auto async = std::make_unique<AsyncWritableFile>(std::move(file), pool,
                                                     async_buffer_bytes);
    async->set_flush_histogram(flush_histogram);
    *out = std::make_unique<RecordWriter>(std::move(async), block_bytes);
  }
  return (*out)->status();
}

}  // namespace twrs
