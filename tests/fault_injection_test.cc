// Write-path fault injection: every write-side Env call a sort makes is
// failed in turn, on each output path (serial, pooled, partitioned final
// merge, sharded ranges, distribution sort). Whatever call fails, the sort
// must report it, leave no scratch file behind and leave no torn output.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "distribution/distribution_sort.h"
#include "exec/executor.h"
#include "io/mem_env.h"
#include "merge/external_sorter.h"
#include "shard/sharded_sorter.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace twrs {
namespace {

/// Output path of every sort in this file.
constexpr char kOutput[] = "out";

/// Env decorator over a MemEnv that counts every write-side call — file
/// creation (NewWritableFile, NewRandomRWFile, ReopenRandomRWFile) and
/// Append, WriteAt, Sync and Close on the handles those return — and fails
/// the `fail_at`-th one (1-based; 0 never fails). A failed Close still
/// closes the wrapped handle; repeated Closes of one handle are not
/// counted, so an idempotent second Close cannot swallow the fault.
class FaultInjectionEnv : public Env {
 public:
  FaultInjectionEnv(MemEnv* base, uint64_t fail_at)
      : base_(base), fail_at_(fail_at) {}

  uint64_t calls() const { return calls_.load(); }

  /// Reopens of kOutput: one per positioned range writer.
  uint64_t output_reopens() const { return output_reopens_.load(); }

  /// Counts one write-side call; the `fail_at`-th returns an IOError.
  Status Hit(const char* what) {
    if (calls_.fetch_add(1) + 1 != fail_at_) return Status::OK();
    return Status::IOError(std::string("injected fault in ") + what);
  }

  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* out) override;
  Status NewSequentialFile(const std::string& path,
                           std::unique_ptr<SequentialFile>* out) override {
    return base_->NewSequentialFile(path, out);
  }
  Status NewRandomRWFile(const std::string& path,
                         std::unique_ptr<RandomRWFile>* out) override;
  Status ReopenRandomRWFile(const std::string& path,
                            std::unique_ptr<RandomRWFile>* out) override;
  Status NewRandomReadFile(const std::string& path,
                           std::unique_ptr<RandomRWFile>* out) override {
    return base_->NewRandomReadFile(path, out);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status GetFileSize(const std::string& path, uint64_t* size) override {
    return base_->GetFileSize(path, size);
  }
  Status CreateDirIfMissing(const std::string& path) override {
    return base_->CreateDirIfMissing(path);
  }
  Status RemoveDir(const std::string& path) override {
    return base_->RemoveDir(path);
  }
  Status ListDir(const std::string& path,
                 std::vector<std::string>* names) override {
    return base_->ListDir(path, names);
  }

 private:
  MemEnv* base_;
  const uint64_t fail_at_;
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> output_reopens_{0};
};

class FaultyWritableFile : public WritableFile {
 public:
  FaultyWritableFile(FaultInjectionEnv* env, std::unique_ptr<WritableFile> base)
      : env_(env), base_(std::move(base)) {}

  Status Append(const void* data, size_t n) override {
    TWRS_RETURN_IF_ERROR(env_->Hit("Append"));
    return base_->Append(data, n);
  }
  Status Sync() override {
    TWRS_RETURN_IF_ERROR(env_->Hit("Sync"));
    return base_->Sync();
  }
  Status Close() override {
    if (closed_) return base_->Close();
    closed_ = true;
    Status fault = env_->Hit("Close");
    Status s = base_->Close();
    return fault.ok() ? s : fault;
  }

 private:
  FaultInjectionEnv* env_;
  std::unique_ptr<WritableFile> base_;
  bool closed_ = false;
};

class FaultyRandomRWFile : public RandomRWFile {
 public:
  FaultyRandomRWFile(FaultInjectionEnv* env, std::unique_ptr<RandomRWFile> base)
      : env_(env), base_(std::move(base)) {}

  Status WriteAt(uint64_t offset, const void* data, size_t n) override {
    TWRS_RETURN_IF_ERROR(env_->Hit("WriteAt"));
    return base_->WriteAt(offset, data, n);
  }
  Status ReadAt(uint64_t offset, void* out, size_t n) override {
    return base_->ReadAt(offset, out, n);
  }
  Status Sync() override {
    TWRS_RETURN_IF_ERROR(env_->Hit("Sync"));
    return base_->Sync();
  }
  Status Close() override {
    if (closed_) return base_->Close();
    closed_ = true;
    Status fault = env_->Hit("Close");
    Status s = base_->Close();
    return fault.ok() ? s : fault;
  }

 private:
  FaultInjectionEnv* env_;
  std::unique_ptr<RandomRWFile> base_;
  bool closed_ = false;
};

Status FaultInjectionEnv::NewWritableFile(const std::string& path,
                                          std::unique_ptr<WritableFile>* out) {
  TWRS_RETURN_IF_ERROR(Hit("NewWritableFile"));
  std::unique_ptr<WritableFile> file;
  TWRS_RETURN_IF_ERROR(base_->NewWritableFile(path, &file));
  *out = std::make_unique<FaultyWritableFile>(this, std::move(file));
  return Status::OK();
}

Status FaultInjectionEnv::NewRandomRWFile(const std::string& path,
                                          std::unique_ptr<RandomRWFile>* out) {
  TWRS_RETURN_IF_ERROR(Hit("NewRandomRWFile"));
  std::unique_ptr<RandomRWFile> file;
  TWRS_RETURN_IF_ERROR(base_->NewRandomRWFile(path, &file));
  *out = std::make_unique<FaultyRandomRWFile>(this, std::move(file));
  return Status::OK();
}

Status FaultInjectionEnv::ReopenRandomRWFile(
    const std::string& path, std::unique_ptr<RandomRWFile>* out) {
  if (path == kOutput) output_reopens_.fetch_add(1);
  TWRS_RETURN_IF_ERROR(Hit("ReopenRandomRWFile"));
  std::unique_ptr<RandomRWFile> file;
  TWRS_RETURN_IF_ERROR(base_->ReopenRandomRWFile(path, &file));
  *out = std::make_unique<FaultyRandomRWFile>(this, std::move(file));
  return Status::OK();
}

/// One small sort of `input` into kOutput through `env` on one output path.
using SortFn = std::function<Status(Env* env, const std::vector<Key>& input)>;

ExternalSortOptions SmallSortOptions() {
  ExternalSortOptions options;
  options.memory_records = 384;
  options.twrs = TwoWayOptions::Recommended(384);
  options.fan_in = 2;  // intermediate merges as well as the final one
  options.temp_dir = "tmp";
  options.block_bytes = 256;
  return options;
}

Status RunExternalSort(Env* env, const std::vector<Key>& input,
                       const ExternalSortOptions& options) {
  ExternalSorter sorter(env, options);
  VectorSource source(input);
  return sorter.Sort(&source, kOutput, nullptr);
}

/// Runs `sort` once cleanly to count its write-side calls — checking it
/// opened `ranges` positioned range writers, so the path under test really
/// ran — then once per swept call index with that call failing (every
/// index, or an even stride over at most ~200 of them, always including
/// the last).
void SweepWriteFaults(uint64_t ranges, const SortFn& sort) {
  WorkloadOptions wl;
  wl.num_records = 2000;
  wl.seed = 77;
  const std::vector<Key> input =
      testing::Drain(MakeWorkload(Dataset::kRandom, wl).get());

  uint64_t calls = 0;
  {
    MemEnv mem;
    FaultInjectionEnv env(&mem, 0);
    ASSERT_TWRS_OK(sort(&env, input));
    calls = env.calls();
    EXPECT_EQ(env.output_reopens(), ranges);
    uint64_t count = 0;
    KeyChecksum checksum;
    ASSERT_TWRS_OK(VerifySortedFile(&mem, kOutput, &count, &checksum));
    ASSERT_EQ(count, input.size());
    ASSERT_TRUE(checksum == testing::ChecksumOf(input));
    ASSERT_EQ(mem.FileCount(), 1u) << "a clean sort leaves only its output";
  }
  ASSERT_GT(calls, 0u);
  std::vector<uint64_t> points;
  const uint64_t stride = (calls + 199) / 200;
  for (uint64_t n = 1; n <= calls; n += stride) points.push_back(n);
  if (points.back() != calls) points.push_back(calls);

  for (uint64_t n : points) {
    MemEnv mem;
    FaultInjectionEnv env(&mem, n);
    const Status s = sort(&env, input);
    EXPECT_FALSE(s.ok()) << "fault at write call " << n << " of " << calls
                         << " was swallowed";
    EXPECT_FALSE(mem.FileExists(kOutput))
        << "fault at write call " << n << " left a torn output";
    // MemEnv directories are implicit: no file left means temp_dir is empty.
    EXPECT_EQ(mem.FileCount(), 0u)
        << "fault at write call " << n << " left scratch files";
  }
}

TEST(WriteFaultInjectionTest, SerialSort) {
  SweepWriteFaults(0, [](Env* env, const std::vector<Key>& input) {
    return RunExternalSort(env, input, SmallSortOptions());
  });
}

TEST(WriteFaultInjectionTest, PooledSort) {
  ExecutorOptions exec_options;
  exec_options.capacity = 2;
  Executor executor(exec_options);
  SweepWriteFaults(0, [&executor](Env* env, const std::vector<Key>& input) {
    ExternalSortOptions options = SmallSortOptions();
    options.parallel.worker_threads = 2;  // async run and merge writers
    options.parallel.executor = &executor;
    return RunExternalSort(env, input, options);
  });
}

TEST(WriteFaultInjectionTest, PartitionedFinalMerge) {
  ExecutorOptions exec_options;
  exec_options.capacity = 2;
  Executor executor(exec_options);
  SweepWriteFaults(3, [&executor](Env* env, const std::vector<Key>& input) {
    ExternalSortOptions options = SmallSortOptions();
    options.parallel.worker_threads = 2;
    options.parallel.final_merge_threads = 3;
    options.parallel.executor = &executor;
    return RunExternalSort(env, input, options);
  });
}

TEST(WriteFaultInjectionTest, ShardedSortRanges) {
  ExecutorOptions exec_options;
  exec_options.capacity = 2;
  Executor executor(exec_options);
  SweepWriteFaults(3, [&executor](Env* env, const std::vector<Key>& input) {
    ShardedSortOptions options;
    options.shards = 3;
    options.sample_size = 256;
    options.sort = SmallSortOptions();
    options.sort.parallel.worker_threads = 1;  // pooled range writers
    options.executor = &executor;
    ShardedSorter sorter(env, options);
    VectorSource source(input);
    return sorter.Sort(&source, kOutput, nullptr);
  });
}

TEST(WriteFaultInjectionTest, DistributionSort) {
  SweepWriteFaults(0, [](Env* env, const std::vector<Key>& input) {
    DistributionSortOptions options;
    options.memory_records = 100;  // several distribution levels
    options.num_buckets = 4;
    options.temp_dir = "tmp";
    options.block_bytes = 256;
    VectorSource source(input);
    return DistributionSort(env, &source, options, kOutput, nullptr);
  });
}

}  // namespace
}  // namespace twrs
