#include "io/record_io.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "io/mem_env.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace twrs {
namespace {

TEST(RecordCodecTest, RoundTripsExtremes) {
  uint8_t buf[kRecordBytes];
  for (Key k : {Key{0}, Key{1}, Key{-1}, Key{42},
                std::numeric_limits<Key>::min(),
                std::numeric_limits<Key>::max()}) {
    EncodeKey(k, buf);
    EXPECT_EQ(DecodeKey(buf), k);
  }
}

TEST(RecordCodecTest, LittleEndianLayout) {
  uint8_t buf[kRecordBytes];
  EncodeKey(0x0102030405060708LL, buf);
  EXPECT_EQ(buf[0], 0x08);
  EXPECT_EQ(buf[7], 0x01);
}

TEST(RecordCodecTest, BatchCodecMatchesPerRecordCodec) {
  Random rng(11);
  for (size_t n : {0, 1, 3, 4, 5, 17, 64}) {
    std::vector<Key> keys(n);
    for (Key& k : keys) k = static_cast<Key>(rng.Next());
    std::vector<uint8_t> bytes(n * kRecordBytes, 0xAB);
    EncodeKeys(keys.data(), n, bytes.data());
    for (size_t i = 0; i < n; ++i) {
      uint8_t one[kRecordBytes];
      EncodeKey(keys[i], one);
      ASSERT_EQ(0, std::memcmp(one, bytes.data() + i * kRecordBytes,
                               kRecordBytes))
          << "n=" << n << " i=" << i;
    }
    std::vector<Key> decoded(n, -1);
    DecodeKeys(bytes.data(), n, decoded.data());
    EXPECT_EQ(decoded, keys) << "n=" << n;
  }
}

// Buffer boundary behaviour must not depend on the block size.
class RecordIoTest : public ::testing::TestWithParam<size_t> {
 protected:
  MemEnv env_;
};

TEST_P(RecordIoTest, RoundTripManyRecords) {
  const size_t block = GetParam();
  Random rng(3);
  std::vector<Key> keys(1000);
  for (Key& k : keys) k = static_cast<Key>(rng.Next());

  RecordWriter writer(&env_, "f", block);
  ASSERT_TWRS_OK(writer.status());
  for (Key k : keys) ASSERT_TWRS_OK(writer.Append(k));
  ASSERT_TWRS_OK(writer.Finish());
  EXPECT_EQ(writer.count(), keys.size());

  RecordReader reader(&env_, "f", block);
  ASSERT_TWRS_OK(reader.status());
  for (Key expected : keys) {
    Key k;
    bool eof;
    ASSERT_TWRS_OK(reader.Next(&k, &eof));
    ASSERT_FALSE(eof);
    EXPECT_EQ(k, expected);
  }
  Key k;
  bool eof;
  ASSERT_TWRS_OK(reader.Next(&k, &eof));
  EXPECT_TRUE(eof);
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, RecordIoTest,
                         ::testing::Values(8, 24, 64, 4096, 1 << 20));

TEST(RecordIoBasicTest, EmptyFile) {
  MemEnv env;
  RecordWriter writer(&env, "f");
  ASSERT_TWRS_OK(writer.status());
  ASSERT_TWRS_OK(writer.Finish());
  RecordReader reader(&env, "f");
  Key k;
  bool eof;
  ASSERT_TWRS_OK(reader.Next(&k, &eof));
  EXPECT_TRUE(eof);
}

TEST(RecordIoBasicTest, FinishIsIdempotent) {
  MemEnv env;
  RecordWriter writer(&env, "f");
  ASSERT_TWRS_OK(writer.Append(1));
  ASSERT_TWRS_OK(writer.Finish());
  ASSERT_TWRS_OK(writer.Finish());
  std::vector<Key> keys;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "f", &keys));
  EXPECT_EQ(keys, std::vector<Key>({1}));
}

TEST(RecordIoBasicTest, DestructorFlushesUnfinishedWriter) {
  MemEnv env;
  {
    RecordWriter writer(&env, "f");
    ASSERT_TWRS_OK(writer.Append(7));
    // no Finish(): destructor must flush
  }
  std::vector<Key> keys;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "f", &keys));
  EXPECT_EQ(keys, std::vector<Key>({7}));
}

TEST(RecordIoBasicTest, TruncatedFileIsCorruption) {
  MemEnv env;
  std::unique_ptr<WritableFile> w;
  ASSERT_TWRS_OK(env.NewWritableFile("f", &w));
  ASSERT_TWRS_OK(w->Append("abc", 3));  // not a multiple of 8
  ASSERT_TWRS_OK(w->Close());
  RecordReader reader(&env, "f");
  Key k;
  bool eof;
  Status s = reader.Next(&k, &eof);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(RecordIoBasicTest, WriteAllReadAllHelpers) {
  MemEnv env;
  std::vector<Key> keys = {3, 1, 4, 1, 5, -9};
  ASSERT_TWRS_OK(WriteAllRecords(&env, "f", keys));
  std::vector<Key> back;
  ASSERT_TWRS_OK(ReadAllRecords(&env, "f", &back));
  EXPECT_EQ(back, keys);
}

TEST(RecordIoBasicTest, MissingFileReportsOnConstruction) {
  MemEnv env;
  RecordReader reader(&env, "missing");
  EXPECT_FALSE(reader.status().ok());
  Key k;
  bool eof;
  EXPECT_FALSE(reader.Next(&k, &eof).ok());
}

}  // namespace
}  // namespace twrs
