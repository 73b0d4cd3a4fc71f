#ifndef TWRS_IO_MERGE_SINK_H_
#define TWRS_IO_MERGE_SINK_H_

#include <cstdint>
#include <memory>
#include <string>

#include "exec/async_io.h"
#include "exec/thread_pool.h"
#include "io/env.h"
#include "obs/latency_histogram.h"
#include "util/status.h"

namespace twrs {

/// Byte-stream destination of one merge.
///
/// Every merge in the system emits its sorted output through a MergeSink
/// instead of a hardwired append-only file, which is what lets one merge
/// write a whole file (AppendMergeSink) while another fills a
/// caller-assigned byte range of a shared output (RangeMergeSink) — the
/// positioned path behind the partitioned final merge and the
/// concatenation-free sharded sort.
///
/// Write calls arrive sequentially from a single thread. Finish flushes
/// buffered bytes and closes the underlying handle; it is idempotent, and
/// no Write may follow it.
class MergeSink {
 public:
  virtual ~MergeSink() = default;

  /// Accepts the next `n` output bytes.
  virtual Status Write(const void* data, size_t n) = 0;

  /// Flushes and closes. Idempotent.
  virtual Status Finish() = 0;

  /// Bytes accepted so far (buffered or flushed).
  virtual uint64_t bytes_written() const = 0;
};

/// MergeSink over an append-only WritableFile — the classic merge output
/// path. Owns the file, which is commonly an AsyncWritableFile so output
/// I/O overlaps loser-tree work (see MakeAppendMergeSink).
class AppendMergeSink : public MergeSink {
 public:
  /// Takes ownership of `file`. When `flush_histogram` is non-null, the
  /// wall time of every Append to `file` is recorded into it — meaningful
  /// when `file` writes synchronously; when `file` is an AsyncWritableFile
  /// attach the histogram there instead (Append here is just a memcpy).
  /// With `sync_on_finish`, Finish forces the bytes to stable storage
  /// (WritableFile::Sync) before closing — set on final outputs, not on
  /// scratch runs that are re-read and deleted minutes later.
  explicit AppendMergeSink(std::unique_ptr<WritableFile> file,
                           LatencyHistogram* flush_histogram = nullptr,
                           bool sync_on_finish = false)
      : file_(std::move(file)),
        flush_histogram_(flush_histogram),
        sync_on_finish_(sync_on_finish) {}

  ~AppendMergeSink() override {
    // Destruction is the unchecked path; Finish() is the checked one and
    // any error it saw is already sticky in status_.
    TWRS_IGNORE_STATUS(Finish());
  }

  Status Write(const void* data, size_t n) override;
  Status Finish() override;
  uint64_t bytes_written() const override { return bytes_written_; }

 private:
  std::unique_ptr<WritableFile> file_;
  LatencyHistogram* flush_histogram_;
  const bool sync_on_finish_;
  uint64_t bytes_written_ = 0;
  Status status_;
  bool finished_ = false;
};

/// Creates `path` (truncating) and returns an AppendMergeSink over it,
/// writing through a double-buffered AsyncWritableFile flushed on `pool` —
/// or directly when `pool` is null. A non-null `flush_histogram` records
/// the wall time of every flush that actually reaches the file (background
/// flushes with a pool, synchronous appends without); it must outlive the
/// sink. `sync_on_finish` makes Finish force the bytes to stable storage
/// before closing.
Status MakeAppendMergeSink(Env* env, const std::string& path, ThreadPool* pool,
                           size_t async_buffer_bytes,
                           std::unique_ptr<MergeSink>* out,
                           LatencyHistogram* flush_histogram = nullptr,
                           bool sync_on_finish = false);

/// MergeSink that fills the caller-assigned byte range
/// [offset, offset + length) of a shared output file through
/// RandomRWFile::WriteAt. Several RangeMergeSinks over distinct handles of
/// one file may run concurrently as long as their ranges are disjoint — the
/// Env contract pinned down by env_test (extend-on-write, disjoint
/// concurrent writers).
///
/// With a pool, output is double-buffered: a filled buffer is sealed and
/// flushed by a background positioned write while the merge keeps filling
/// the other half — the same overlap AsyncWritableFile gives the append
/// path. At most one flush is in flight, so range bytes land in order.
///
/// Finish verifies the range was filled exactly: a merge that produced
/// fewer or more bytes than its assigned range would silently corrupt the
/// shared output, so the mismatch surfaces as Corruption instead.
class RangeMergeSink : public MergeSink {
 public:
  /// Takes ownership of `file` (a handle positioned writes go through;
  /// opened without truncation when the file is shared). `pool` (if
  /// non-null) must outlive the sink.
  /// A non-null `flush_histogram` records the wall time of every
  /// positioned write to `file` (synchronous and background); it must
  /// outlive the sink. With `sync_on_finish`, Finish forces the range to
  /// stable storage (RandomRWFile::Sync) before closing.
  RangeMergeSink(std::unique_ptr<RandomRWFile> file, uint64_t offset,
                 uint64_t length, ThreadPool* pool = nullptr,
                 size_t buffer_bytes = kDefaultAsyncBufferBytes,
                 LatencyHistogram* flush_histogram = nullptr,
                 bool sync_on_finish = false);

  /// Abandons unflushed bytes (error-path unwinding); waits for any
  /// in-flight flush and closes the handle. Call Finish for the checked
  /// shutdown.
  ~RangeMergeSink() override;

  Status Write(const void* data, size_t n) override;
  Status Finish() override;
  uint64_t bytes_written() const override { return bytes_written_; }

  /// The assigned range.
  uint64_t offset() const { return offset_; }
  uint64_t length() const { return length_; }

 private:
  /// Waits for the in-flight flush (if any) and folds its Status into
  /// `status_`.
  Status WaitForInflight();

  /// Seals the active buffer and submits its positioned write.
  Status RotateAndFlush();

  std::unique_ptr<RandomRWFile> file_;
  const uint64_t offset_;
  const uint64_t length_;
  ThreadPool* pool_;
  LatencyHistogram* flush_histogram_;
  const bool sync_on_finish_;
  std::vector<uint8_t> active_;
  std::vector<uint8_t> inflight_;
  size_t active_used_ = 0;
  size_t inflight_used_ = 0;
  uint64_t flush_pos_ = 0;  ///< absolute file offset of the next flush
  uint64_t bytes_written_ = 0;
  TaskHandle pending_;
  Status status_;
  bool finished_ = false;
};

/// Opens `path` for positioned writes without truncation and returns a
/// RangeMergeSink over [offset, offset + length) of it. The file must
/// already exist (its creator truncates exactly once, before any range
/// writer starts).
Status MakeRangeMergeSink(Env* env, const std::string& path, uint64_t offset,
                          uint64_t length, ThreadPool* pool,
                          size_t buffer_bytes, std::unique_ptr<MergeSink>* out,
                          LatencyHistogram* flush_histogram = nullptr,
                          bool sync_on_finish = false);

/// WritableFile adapter over a borrowed MergeSink, so block-buffered record
/// writers (RecordWriter) can emit through any sink. Close finishes the
/// sink.
class MergeSinkFile : public WritableFile {
 public:
  /// Does not take ownership of `sink`, which must outlive this adapter.
  explicit MergeSinkFile(MergeSink* sink) : sink_(sink) {}

  Status Append(const void* data, size_t n) override {
    return sink_->Write(data, n);
  }

  Status Close() override { return sink_->Finish(); }

 private:
  MergeSink* sink_;
};

}  // namespace twrs

#endif  // TWRS_IO_MERGE_SINK_H_
