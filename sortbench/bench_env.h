#ifndef SORTBENCH_BENCH_ENV_H_
#define SORTBENCH_BENCH_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/env.h"
#include "trace.h"

namespace sortbench {

/// Which file a call touched: the sort's input, its output, or anything
/// else the sorter creates (runs, intermediate merges, shard files).
enum Role { kInput = 0, kScratch = 1, kOutput = 2, kNumRoles = 3 };

/// What a handle call does.
enum IoKind { kRead = 0, kWrite = 1, kSync = 2, kNumKinds = 3 };

/// Span names of handle calls, by role and kind. Env-level calls (open,
/// close, remove, stat, list, mkdir, rmdir) are named "io.file.<call>".
inline constexpr const char* kHandleSpan[kNumRoles][kNumKinds] = {
    {"io.input.read", "io.input.write", "io.input.sync"},
    {"io.scratch.read", "io.scratch.write", "io.scratch.sync"},
    {"io.output.read", "io.output.write", "io.output.sync"}};

/// Bytes and calls per role, as plain numbers.
struct IoTotals {
  uint64_t read_bytes[kNumRoles] = {};
  uint64_t write_bytes[kNumRoles] = {};
  uint64_t read_ops[kNumRoles] = {};
  uint64_t write_ops[kNumRoles] = {};
  uint64_t file_ops = 0;  ///< create, open, close, remove, stat, list, mkdir

  uint64_t all_read_bytes() const;
  uint64_t all_write_bytes() const;
};

/// Env decorator owned by the benchmark. It counts every handle call and
/// its bytes by role, always (the byte cross-check runs on every sort),
/// and with a Tracer attached it also records each call as a span.
/// Thread-safe: the sharded workload does I/O from pool threads.
class BenchEnv : public twrs::Env {
 public:
  /// Does not take ownership of `base`.
  BenchEnv(twrs::Env* base, std::string input_path, std::string output_path);

  /// Null turns span recording off. Set between sorts only.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

  /// Counts since construction or the last Reset.
  IoTotals Totals() const;
  void Reset();

  Role RoleOf(const std::string& path) const;

  /// Counts a call, and records it as a span when tracing.
  void Count(Role role, bool write, uint64_t bytes);
  void CountFileOp() { file_ops_.fetch_add(1, std::memory_order_relaxed); }

  twrs::Status NewWritableFile(
      const std::string& path,
      std::unique_ptr<twrs::WritableFile>* out) override;
  twrs::Status NewSequentialFile(
      const std::string& path,
      std::unique_ptr<twrs::SequentialFile>* out) override;
  twrs::Status NewRandomRWFile(
      const std::string& path,
      std::unique_ptr<twrs::RandomRWFile>* out) override;
  twrs::Status ReopenRandomRWFile(
      const std::string& path,
      std::unique_ptr<twrs::RandomRWFile>* out) override;
  twrs::Status NewRandomReadFile(
      const std::string& path,
      std::unique_ptr<twrs::RandomRWFile>* out) override;
  bool FileExists(const std::string& path) override;
  twrs::Status RemoveFile(const std::string& path) override;
  twrs::Status GetFileSize(const std::string& path, uint64_t* size) override;
  twrs::Status CreateDirIfMissing(const std::string& path) override;
  twrs::Status RemoveDir(const std::string& path) override;
  twrs::Status ListDir(const std::string& path,
                       std::vector<std::string>* names) override;
  twrs::IoCapabilities io_capabilities() const override {
    return base_->io_capabilities();
  }

 private:
  twrs::Env* base_;
  const std::string input_path_;
  const std::string output_path_;
  Tracer* tracer_ = nullptr;
  std::atomic<uint64_t> read_bytes_[kNumRoles] = {};
  std::atomic<uint64_t> write_bytes_[kNumRoles] = {};
  std::atomic<uint64_t> read_ops_[kNumRoles] = {};
  std::atomic<uint64_t> write_ops_[kNumRoles] = {};
  std::atomic<uint64_t> file_ops_{0};
};

}  // namespace sortbench

#endif  // SORTBENCH_BENCH_ENV_H_
