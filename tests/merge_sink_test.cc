// The merge output stack: RangeWritableFile (positioned output into one
// byte range of a shared file) and OpenRecordWriter, the one factory every
// record stream — run streams, merge outputs, partition and shard ranges —
// is opened through.

#include "io/range_file.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/async_io.h"
#include "exec/thread_pool.h"
#include "io/mem_env.h"
#include "io/posix_env.h"
#include "io/record_io.h"
#include "tests/test_util.h"

namespace twrs {
namespace {

using testing::MakeTempDir;

std::string Contents(MemEnv* env, const std::string& path) {
  const std::vector<uint8_t>* data = env->FileContents(path);
  EXPECT_NE(data, nullptr);
  if (data == nullptr) return "";
  return std::string(data->begin(), data->end());
}

/// Truncate-creates `path` holding `bytes`, as a range writer's creator does.
void CreateFile(Env* env, const std::string& path, const std::string& bytes) {
  std::unique_ptr<RandomRWFile> f;
  ASSERT_TWRS_OK(env->NewRandomRWFile(path, &f));
  if (!bytes.empty()) ASSERT_TWRS_OK(f->WriteAt(0, bytes.data(), bytes.size()));
  ASSERT_TWRS_OK(f->Close());
}

MergeOutputRange Range(uint64_t offset, uint64_t length) {
  MergeOutputRange range;
  range.positioned = true;
  range.offset = offset;
  range.length = length;
  return range;
}

/// Reopens `path` and returns a RangeWritableFile over `range` of it.
Status OpenRange(Env* env, const std::string& path,
                 const MergeOutputRange& range,
                 std::unique_ptr<WritableFile>* out) {
  std::unique_ptr<RandomRWFile> file;
  TWRS_RETURN_IF_ERROR(env->ReopenRandomRWFile(path, &file));
  *out = std::make_unique<RangeWritableFile>(std::move(file), range.offset,
                                             range.length);
  return Status::OK();
}

std::string Encoded(const std::vector<Key>& keys) {
  std::string bytes(keys.size() * kRecordBytes, '\0');
  EncodeKeys(keys.data(), keys.size(), reinterpret_cast<uint8_t*>(&bytes[0]));
  return bytes;
}

// ------------------------------------------------------- RangeWritableFile

TEST(RangeWritableFileTest, FillsExactlyItsRange) {
  MemEnv env;
  CreateFile(&env, "out", "AAAABBBBCCCC");
  std::unique_ptr<WritableFile> file;
  ASSERT_TWRS_OK(OpenRange(&env, "out", Range(4, 4), &file));
  ASSERT_TWRS_OK(file->Append("xy", 2));
  ASSERT_TWRS_OK(file->Append("zw", 2));
  ASSERT_TWRS_OK(file->Close());
  ASSERT_TWRS_OK(file->Close());  // idempotent
  EXPECT_EQ(Contents(&env, "out"), "AAAAxyzwCCCC");
}

TEST(RangeWritableFileTest, ExtendsTheFileOnWrite) {
  MemEnv env;
  CreateFile(&env, "out", "");
  std::unique_ptr<WritableFile> file;
  ASSERT_TWRS_OK(OpenRange(&env, "out", Range(8, 4), &file));
  ASSERT_TWRS_OK(file->Append("TAIL", 4));
  ASSERT_TWRS_OK(file->Close());
  uint64_t size = 0;
  ASSERT_TWRS_OK(env.GetFileSize("out", &size));
  EXPECT_EQ(size, 12u);
  EXPECT_EQ(Contents(&env, "out").substr(8), "TAIL");
}

TEST(RangeWritableFileTest, WriteBeyondRangeIsRejected) {
  MemEnv env;
  CreateFile(&env, "out", "");
  std::unique_ptr<WritableFile> file;
  ASSERT_TWRS_OK(OpenRange(&env, "out", Range(0, 4), &file));
  ASSERT_TWRS_OK(file->Append("12", 2));
  // Straddles the end: rejected whole, nothing lands past the range.
  Status s = file->Append("345", 3);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_EQ(Contents(&env, "out"), "12");
}

TEST(RangeWritableFileTest, UnderfilledRangeIsCorruptionAtClose) {
  MemEnv env;
  CreateFile(&env, "out", "");
  std::unique_ptr<WritableFile> file;
  ASSERT_TWRS_OK(OpenRange(&env, "out", Range(0, 8), &file));
  ASSERT_TWRS_OK(file->Append("1234", 4));
  Status s = file->Close();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_TRUE(file->Close().IsCorruption());
}

TEST(RangeWritableFileTest, ZeroLengthRangeClosesClean) {
  MemEnv env;
  CreateFile(&env, "out", "");
  std::unique_ptr<WritableFile> file;
  ASSERT_TWRS_OK(OpenRange(&env, "out", Range(0, 0), &file));
  ASSERT_TWRS_OK(file->Close());
}

// AsyncWritableFile is the one double buffer; over a range file it must
// land exactly the bytes a synchronous range write does, through hundreds
// of rotations.
TEST(RangeWritableFileTest, DoubleBufferedFlushMatchesSyncBytes) {
  MemEnv env;
  ThreadPool pool(2);
  std::string payload;
  for (int i = 0; i < 2000; ++i) payload += std::to_string(i * 7919) + "|";
  const std::string frame(16, '#');
  for (const char* path : {"sync", "async"}) {
    CreateFile(&env, path, frame + std::string(payload.size(), '.') + frame);
    std::unique_ptr<WritableFile> range;
    ASSERT_TWRS_OK(OpenRange(
        &env, path, Range(frame.size(), payload.size()), &range));
    // 96-byte halves force hundreds of rotations over the payload.
    AsyncWritableFile file(std::move(range),
                           std::string(path) == "async" ? &pool : nullptr,
                           96);
    size_t pos = 0;
    while (pos < payload.size()) {
      const size_t chunk = std::min<size_t>(37, payload.size() - pos);
      ASSERT_TWRS_OK(file.Append(payload.data() + pos, chunk));
      pos += chunk;
    }
    ASSERT_TWRS_OK(file.Close());
  }
  EXPECT_EQ(Contents(&env, "async"), Contents(&env, "sync"));
  EXPECT_EQ(Contents(&env, "async"), frame + payload + frame);
}

// -------------------------------------------------------- OpenRecordWriter

TEST(OpenRecordWriterTest, AppendModeCreatesThePath) {
  MemEnv env;
  ASSERT_TWRS_OK(WriteAllRecords(&env, "out", {9, 9, 9, 9, 9}));  // truncated
  std::unique_ptr<RecordWriter> writer;
  ASSERT_TWRS_OK(OpenRecordWriter(&env, "out", MergeOutputRange(), 64,
                                  nullptr, nullptr, true, &writer));
  for (Key k = 0; k < 100; ++k) ASSERT_TWRS_OK(writer->Append(k));
  ASSERT_TWRS_OK(writer->Finish());
  std::vector<Key> keys;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "out", &keys));
  ASSERT_EQ(keys.size(), 100u);
  for (Key k = 0; k < 100; ++k) EXPECT_EQ(keys[k], k);
}

TEST(OpenRecordWriterTest, PositionedModeFillsOnlyItsRange) {
  MemEnv env;
  const std::string frame(24, '#');
  CreateFile(&env, "out", frame + std::string(10 * kRecordBytes, '.') + frame);
  ThreadPool pool(1);
  std::unique_ptr<RecordWriter> writer;
  ASSERT_TWRS_OK(OpenRecordWriter(&env, "out",
                                  Range(frame.size(), 10 * kRecordBytes), 64,
                                  &pool, nullptr, true, &writer));
  std::vector<Key> keys;
  for (Key k = 0; k < 10; ++k) keys.push_back(k * 3);
  ASSERT_TWRS_OK(writer->AppendBatch(keys.data(), keys.size()));
  ASSERT_TWRS_OK(writer->Finish());
  EXPECT_EQ(Contents(&env, "out"), frame + Encoded(keys) + frame);
}

TEST(OpenRecordWriterTest, UnderAndOverfilledRangesFailAtFinish) {
  ThreadPool flush_pool(1);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &flush_pool}) {
    for (Key records : {Key{3}, Key{5}}) {
      MemEnv env;
      const std::string frame(8, '#');
      CreateFile(&env, "out", frame + std::string(4 * kRecordBytes, '.') +
                                  frame);
      std::unique_ptr<RecordWriter> writer;
      ASSERT_TWRS_OK(OpenRecordWriter(&env, "out",
                                      Range(frame.size(), 4 * kRecordBytes),
                                      64, pool, nullptr, false, &writer));
      Status s;
      for (Key k = 0; k < records && s.ok(); ++k) s = writer->Append(k);
      if (s.ok()) s = writer->Finish();
      EXPECT_FALSE(s.ok()) << records << " records";
      const std::string got = Contents(&env, "out");
      ASSERT_EQ(got.size(), 2 * frame.size() + 4 * kRecordBytes);
      EXPECT_EQ(got.substr(0, frame.size()), frame);
      EXPECT_EQ(got.substr(got.size() - frame.size()), frame);
    }
  }
}

TEST(OpenRecordWriterTest, MissingFileFailsToOpenARange) {
  MemEnv env;
  std::unique_ptr<RecordWriter> writer;
  EXPECT_FALSE(OpenRecordWriter(&env, "missing", Range(0, 8), 64, nullptr,
                                nullptr, false, &writer)
                   .ok());
  EXPECT_FALSE(env.FileExists("missing"));
}

// Error-path unwinding drops a writer without Finish: it must not throw up
// an error (the exact-fill check is the checked path's job) and must not
// write a byte outside its range.
TEST(OpenRecordWriterTest, AbandonedWriterStaysInsideItsRange) {
  MemEnv env;
  const std::string frame(8, '#');
  CreateFile(&env, "out", frame + std::string(1024, '.') + frame);
  ThreadPool pool(1);
  {
    std::unique_ptr<RecordWriter> writer;
    ASSERT_TWRS_OK(OpenRecordWriter(&env, "out", Range(frame.size(), 1024),
                                    64, &pool, nullptr, true, &writer));
    for (Key k = 0; k < 20; ++k) ASSERT_TWRS_OK(writer->Append(k));
  }
  const std::string got = Contents(&env, "out");
  ASSERT_EQ(got.size(), 2 * frame.size() + 1024);
  EXPECT_EQ(got.substr(0, frame.size()), frame);
  EXPECT_EQ(got.substr(got.size() - frame.size()), frame);
}

TEST(OpenRecordWriterTest, PooledBytesEqualSynchronousBytes) {
  MemEnv env;
  ThreadPool pool(2);
  // Several times the default double-buffer half, so the pooled writer
  // rotates its buffers.
  std::vector<Key> keys(100000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i * 2654435761u;
  const uint64_t bytes = keys.size() * kRecordBytes;
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (bool positioned : {false, true}) {
      const std::string path = std::string(p ? "pooled" : "sync") +
                               (positioned ? "_range" : "_append");
      if (positioned) CreateFile(&env, path, "");
      std::unique_ptr<RecordWriter> writer;
      ASSERT_TWRS_OK(OpenRecordWriter(
          &env, path, positioned ? Range(0, bytes) : MergeOutputRange(),
          4096, p, nullptr, false, &writer));
      ASSERT_TWRS_OK(writer->AppendBatch(keys.data(), keys.size()));
      ASSERT_TWRS_OK(writer->Finish());
      EXPECT_EQ(Contents(&env, path), Encoded(keys)) << path;
    }
  }
}

// The contract the concatenation-free sharded sort rests on: several
// writers over distinct handles of one file, concurrently filling disjoint
// ranges, produce exactly the concatenation of their payloads.
TEST(OpenRecordWriterTest, ConcurrentDisjointRangesCompose) {
  for (int use_posix = 0; use_posix <= 1; ++use_posix) {
    MemEnv mem;
    PosixEnv posix;
    Env* env = use_posix ? static_cast<Env*>(&posix) : &mem;
    const std::string path =
        use_posix ? MakeTempDir() + "/out" : std::string("out");

    constexpr int kWriters = 8;
    constexpr uint64_t kRecordsPerWriter = 40000 + 13;
    CreateFile(env, path, "");
    ThreadPool flush_pool(4);
    std::vector<std::thread> writers;
    std::vector<Status> results(kWriters);
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        std::unique_ptr<RecordWriter> writer;
        Status s = OpenRecordWriter(
            env, path,
            Range(w * kRecordsPerWriter * kRecordBytes,
                  kRecordsPerWriter * kRecordBytes),
            1000, &flush_pool, nullptr, false, &writer);
        for (uint64_t i = 0; s.ok() && i < kRecordsPerWriter; ++i) {
          s = writer->Append(static_cast<Key>(w));
        }
        if (s.ok()) s = writer->Finish();
        results[w] = s;
      });
    }
    for (auto& t : writers) t.join();
    for (int w = 0; w < kWriters; ++w) ASSERT_TWRS_OK(results[w]);
    std::vector<Key> got;
    ASSERT_TWRS_OK(ReadAllRecords(env, path, &got));
    ASSERT_EQ(got.size(), kWriters * kRecordsPerWriter);
    for (uint64_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], i / kRecordsPerWriter) << "record " << i;
    }
  }
}

}  // namespace
}  // namespace twrs
