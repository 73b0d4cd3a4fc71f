#ifndef TWRS_TESTS_TEST_UTIL_H_
#define TWRS_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/input_buffer.h"
#include "core/record_source.h"
#include "core/run_generator.h"
#include "core/run_sink.h"
#include "io/env.h"
#include "util/checksum.h"
#include "util/random.h"
#include "util/status.h"

namespace twrs {
namespace testing {

/// gtest assertion on a twrs::Status.
#define ASSERT_TWRS_OK(expr)                                 \
  do {                                                       \
    ::twrs::Status _s = (expr);                              \
    ASSERT_TRUE(_s.ok()) << "status: " << _s.ToString();     \
  } while (0)

#define EXPECT_TWRS_OK(expr)                                 \
  do {                                                       \
    ::twrs::Status _s = (expr);                              \
    EXPECT_TRUE(_s.ok()) << "status: " << _s.ToString();     \
  } while (0)

/// Reads a source to exhaustion.
inline std::vector<Key> Drain(RecordSource* source) {
  std::vector<Key> out;
  Key batch[1024];
  for (;;) {
    size_t n = 0;
    const Status s = source->NextBatch(batch, 1024, &n);
    EXPECT_TRUE(s.ok()) << "NextBatch: " << s.ToString();
    if (!s.ok() || n == 0) return out;
    out.insert(out.end(), batch, batch + n);
  }
}

/// Reads one record from an InputBuffer; false at end of input (a read
/// error fails the test).
inline bool Pop(InputBuffer* buffer, Key* key) {
  bool eof = true;
  const Status s = buffer->Next(key, &eof);
  EXPECT_TRUE(s.ok()) << "InputBuffer::Next: " << s.ToString();
  return s.ok() && !eof;
}

/// Appends `keys` to one stream of `sink`, in the stream's own order.
inline Status AppendKeys(RunSink* sink, RunStream stream,
                         const std::vector<Key>& keys) {
  return sink->AppendBatch(stream, keys.data(), keys.size());
}

inline bool IsSortedAscending(const std::vector<Key>& keys) {
  return std::is_sorted(keys.begin(), keys.end());
}

inline KeyChecksum ChecksumOf(const std::vector<Key>& keys) {
  KeyChecksum sum;
  for (Key k : keys) sum.Add(k);
  return sum;
}

/// Output of GenerateRuns below.
struct GenerateResult {
  std::vector<std::vector<Key>> runs;  ///< each assembled ascending
  RunGenStats stats;
};

/// Runs a generator over an in-memory input, collecting assembled runs.
inline GenerateResult GenerateRuns(RunGenerator* generator,
                                   std::vector<Key> input) {
  VectorSource source(std::move(input));
  CollectingRunSink sink;
  GenerateResult result;
  Status s = generator->Generate(&source, &sink, &result.stats);
  EXPECT_TRUE(s.ok()) << "Generate: " << s.ToString();
  result.runs = sink.collected();
  return result;
}

/// Asserts the runs are individually sorted and jointly a permutation of
/// the input.
inline void ExpectValidRuns(const std::vector<std::vector<Key>>& runs,
                            const std::vector<Key>& input) {
  KeyChecksum output_sum;
  for (const auto& run : runs) {
    EXPECT_TRUE(IsSortedAscending(run)) << "run not sorted";
    for (Key k : run) output_sum.Add(k);
  }
  EXPECT_TRUE(output_sum == ChecksumOf(input))
      << "runs are not a permutation of the input";
}

/// Writes `records` random keys plus 3 stray bytes to `path`: a torn
/// record file, whose reader fails with Corruption after the last whole
/// block.
inline void WriteTornInput(Env* env, const std::string& path,
                           size_t records = 20000) {
  std::vector<Key> keys(records);
  Random rng(27);
  for (Key& k : keys) k = static_cast<Key>(rng.Next());
  std::vector<uint8_t> bytes(keys.size() * kRecordBytes + 3, 0x5A);
  EncodeKeys(keys.data(), keys.size(), bytes.data());
  std::unique_ptr<WritableFile> file;
  ASSERT_TWRS_OK(env->NewWritableFile(path, &file));
  ASSERT_TWRS_OK(file->Append(bytes.data(), bytes.size()));
  ASSERT_TWRS_OK(file->Close());
}

/// Hands out its keys 1 to 7 at a time (cycling), to check that consumers
/// treat only an empty batch as the end of the input.
class ShortBatchSource : public RecordSource {
 public:
  explicit ShortBatchSource(std::vector<Key> keys) : keys_(std::move(keys)) {}

  Status NextBatch(Key* out, size_t max, size_t* got) override {
    const size_t want = std::min<size_t>(max, 1 + calls_++ % 7);
    *got = std::min(want, keys_.size() - pos_);
    std::copy_n(keys_.data() + pos_, *got, out);
    pos_ += *got;
    return Status::OK();
  }

 private:
  std::vector<Key> keys_;
  size_t pos_ = 0;
  size_t calls_ = 0;
};

/// Creates a unique scratch directory under /tmp for PosixEnv tests.
inline std::string MakeTempDir() {
  std::string templ = "/tmp/twrs_test_XXXXXX";
  char* dir = mkdtemp(templ.data());
  EXPECT_NE(dir, nullptr);
  return std::string(dir);
}

}  // namespace testing
}  // namespace twrs

#endif  // TWRS_TESTS_TEST_UTIL_H_
