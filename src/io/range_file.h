#ifndef TWRS_IO_RANGE_FILE_H_
#define TWRS_IO_RANGE_FILE_H_

#include <cstdint>
#include <memory>

#include "io/env.h"
#include "util/status.h"

namespace twrs {

/// Where one merge output puts its bytes. In append mode (the default) the
/// writer creates its file. In positioned mode it writes into
/// [offset, offset + `length`) of an *existing* file without truncating
/// it — how the partitioned final merge and the sharded sorter let several
/// merges fill disjoint ranges of one shared output.
struct MergeOutputRange {
  bool positioned = false;
  uint64_t offset = 0;
  uint64_t length = 0;  ///< exact bytes the writer must produce
};

/// WritableFile that fills the caller-assigned byte range
/// [offset, offset + length) of a file through RandomRWFile::WriteAt.
/// Writers over distinct handles of one file may run concurrently as long
/// as their ranges are disjoint — the Env contract pinned down by env_test
/// (extend-on-write, disjoint concurrent writers).
///
/// Append rejects bytes past the range, so nothing outside it is ever
/// written. Close returns Corruption unless the range was filled exactly:
/// an under- or over-filled range would leave a hole in (or tear a
/// neighbour of) the shared output.
class RangeWritableFile : public WritableFile {
 public:
  /// Takes ownership of `file`, a handle opened without truncation.
  RangeWritableFile(std::unique_ptr<RandomRWFile> file, uint64_t offset,
                    uint64_t length)
      : file_(std::move(file)), offset_(offset), length_(length) {}

  Status Append(const void* data, size_t n) override;
  Status Sync() override { return file_->Sync(); }
  Status Close() override;

 private:
  std::unique_ptr<RandomRWFile> file_;
  const uint64_t offset_;
  const uint64_t length_;
  uint64_t written_ = 0;
  bool closed_ = false;
  Status close_status_;
};

}  // namespace twrs

#endif  // TWRS_IO_RANGE_FILE_H_
