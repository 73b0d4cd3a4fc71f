#include "io/range_file.h"

#include <string>

namespace twrs {

Status RangeWritableFile::Append(const void* data, size_t n) {
  if (written_ + n > length_) {
    return Status::InvalidArgument(
        "write beyond the assigned range of " + std::to_string(length_) +
        " bytes");
  }
  TWRS_RETURN_IF_ERROR(file_->WriteAt(offset_ + written_, data, n));
  written_ += n;
  return Status::OK();
}

Status RangeWritableFile::Close() {
  if (closed_) return close_status_;
  closed_ = true;
  close_status_ = file_->Close();
  if (close_status_.ok() && written_ != length_) {
    close_status_ = Status::Corruption(
        "range writer wrote " + std::to_string(written_) + " of " +
        std::to_string(length_) + " assigned bytes");
  }
  return close_status_;
}

}  // namespace twrs
