#include "util/page_allocator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "core/record.h"

namespace twrs {
namespace {

TEST(PageAllocatorTest, SmallAndMappedBlocksHoldTheirBytes) {
  for (size_t bytes : {size_t{64}, kPageAllocBytes - 8, kPageAllocBytes,
                       3 * kPageAllocBytes + 8}) {
    auto* p = static_cast<uint8_t*>(AllocatePages(bytes));
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xab, bytes);
    EXPECT_EQ(p[0], 0xab);
    EXPECT_EQ(p[bytes - 1], 0xab);
    FreePages(p, bytes);
  }
}

TEST(PageAllocatorTest, MappedBlocksStartZeroed) {
  auto* p = static_cast<uint8_t*>(AllocatePages(kPageAllocBytes));
  size_t nonzero = 0;
  for (size_t i = 0; i < kPageAllocBytes; ++i) nonzero += p[i] != 0;
  EXPECT_EQ(nonzero, 0u);
  FreePages(p, kPageAllocBytes);
}

// Growth reallocates from operator new into mapped pages and between
// mappings; every element must survive each move.
TEST(PageAllocatorTest, PageVectorGrowsAcrossTheThreshold) {
  const size_t n = 4 * kPageAllocBytes / sizeof(Key);
  PageVector<Key> keys;
  for (size_t i = 0; i < n; ++i) keys.push_back(static_cast<Key>(i) * 3 - 7);
  ASSERT_EQ(keys.size(), n);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(keys[i], static_cast<Key>(i) * 3 - 7) << "at " << i;
  }
  PageVector<Key> moved = std::move(keys);
  EXPECT_EQ(moved.size(), n);
  moved.resize(16);
  moved.shrink_to_fit();
  EXPECT_EQ(moved.back(), Key{15 * 3 - 7});
}

}  // namespace
}  // namespace twrs
