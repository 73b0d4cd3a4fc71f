#ifndef TWRS_CORE_RECORD_SOURCE_H_
#define TWRS_CORE_RECORD_SOURCE_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/record.h"
#include "util/status.h"

namespace twrs {

/// A stream of input records, read in batches so that inputs never need to
/// fit in memory — exactly the database setting the paper targets, where
/// upstream operators feed the sort incrementally.
class RecordSource {
 public:
  virtual ~RecordSource() = default;

  /// Reads up to `max` (> 0) records into `out` and sets `*got` to the
  /// number delivered. `*got == 0` only at the end of the stream, and every
  /// later call returns 0 again; a short batch is not the end. A failed
  /// read (a torn input file, an I/O error) is the returned Status — the
  /// only place errors travel.
  virtual Status NextBatch(Key* out, size_t max, size_t* got) = 0;
};

/// Fills `out[0, max)` from `source` with as many NextBatch calls as it
/// takes; `*got < max` on return means the stream has ended.
inline Status ReadFull(RecordSource* source, Key* out, size_t max,
                       size_t* got) {
  *got = 0;
  while (*got < max) {
    size_t n = 0;
    TWRS_RETURN_IF_ERROR(source->NextBatch(out + *got, max - *got, &n));
    if (n == 0) break;
    *got += n;
  }
  return Status::OK();
}

/// Record-at-a-time reads over a RecordSource, for the reference
/// algorithms that consume one record per step (RS, 2WRS). Refills a small
/// buffer with one NextBatch call at a time.
class RecordCursor {
 public:
  explicit RecordCursor(RecordSource* source) : source_(source) {}

  RecordCursor(const RecordCursor&) = delete;
  RecordCursor& operator=(const RecordCursor&) = delete;

  /// Reads the next record into `*key`; sets `*eof` instead at the end.
  Status Next(Key* key, bool* eof) {
    if (pos_ == size_) {
      pos_ = 0;
      size_ = 0;
      if (!done_) {
        TWRS_RETURN_IF_ERROR(source_->NextBatch(buffer_, kBatch, &size_));
      }
      if (size_ == 0) {
        done_ = true;
        *eof = true;
        return Status::OK();
      }
    }
    *eof = false;
    *key = buffer_[pos_++];
    return Status::OK();
  }

 private:
  static constexpr size_t kBatch = 256;

  RecordSource* source_;
  Key buffer_[kBatch];
  size_t pos_ = 0;
  size_t size_ = 0;
  bool done_ = false;
};

/// RecordSource over an in-memory vector (test and example helper).
class VectorSource : public RecordSource {
 public:
  explicit VectorSource(std::vector<Key> keys) : keys_(std::move(keys)) {}

  Status NextBatch(Key* out, size_t max, size_t* got) override {
    *got = std::min(max, keys_.size() - pos_);
    std::copy_n(keys_.data() + pos_, *got, out);
    pos_ += *got;
    return Status::OK();
  }

 private:
  std::vector<Key> keys_;
  size_t pos_ = 0;
};

}  // namespace twrs

#endif  // TWRS_CORE_RECORD_SOURCE_H_
