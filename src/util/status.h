#ifndef TWRS_UTIL_STATUS_H_
#define TWRS_UTIL_STATUS_H_

#include <string>
#include <utility>

namespace twrs {

/// Operation outcome used throughout the library instead of exceptions.
///
/// A Status is either OK (the default) or carries an error code plus a
/// human-readable message. The style follows the RocksDB/LevelDB idiom:
/// functions that can fail return Status and write results through output
/// parameters.
///
/// The class is [[nodiscard]]: silently dropping any function's Status is
/// a compile-time diagnostic (-Wunused-result, an error under the tree's
/// -Werror). Intentional best-effort drops — cleanup on error paths,
/// destructors where the error is already sticky — must say so with
/// TWRS_IGNORE_STATUS below, so every remaining bare call is a bug.
class [[nodiscard]] Status {
 public:
  enum class Code {
    kOk = 0,
    kNotFound = 1,
    kCorruption = 2,
    kInvalidArgument = 3,
    kIOError = 4,
    kNotSupported = 5,
    kCancelled = 6,
    kBusy = 7,
    kInternal = 8,  ///< a broken internal invariant; never expected
  };

  /// Creates an OK status.
  Status() = default;

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(Code::kIOError, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(Code::kNotSupported, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(Code::kCancelled, std::move(msg));
  }
  static Status Busy(std::string msg) {
    return Status(Code::kBusy, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(Code::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsIOError() const { return code_ == Code::kIOError; }
  bool IsNotSupported() const { return code_ == Code::kNotSupported; }
  bool IsCancelled() const { return code_ == Code::kCancelled; }
  bool IsBusy() const { return code_ == Code::kBusy; }
  bool IsInternal() const { return code_ == Code::kInternal; }

  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders e.g. "IO error: open failed" or "OK".
  std::string ToString() const;

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  Code code_ = Code::kOk;
  std::string message_;
};

/// Propagates a non-OK status to the caller.
#define TWRS_RETURN_IF_ERROR(expr)              \
  do {                                          \
    ::twrs::Status _twrs_status = (expr);       \
    if (!_twrs_status.ok()) return _twrs_status; \
  } while (0)

namespace internal {
inline void IgnoreStatus(const Status&) {}
}  // namespace internal

/// Explicitly discards a Status, defeating [[nodiscard]]. Only for
/// deliberate best-effort drops — error-path cleanup over entries that may
/// already be gone, destructors whose error is already sticky in the
/// object — never as a shortcut past real error handling. Grep-able, so
/// every intentional drop in the tree can be audited.
#define TWRS_IGNORE_STATUS(expr) ::twrs::internal::IgnoreStatus((expr))

}  // namespace twrs

#endif  // TWRS_UTIL_STATUS_H_
