#include "simd/kernels.h"

#include <algorithm>
#include <cstring>

namespace twrs {
namespace simd {

namespace {

/// Linear scans beat per-key binary search only while the whole splitter
/// set fits comfortably in registers/L1; wider sets (never produced by the
/// shard planner) take the scalar search even under vector dispatch.
constexpr size_t kMaxVectorSplitters = 64;

DispatchLevel ResolveAndCount(Kernel kernel) {
  const DispatchLevel level = ActiveDispatchLevel();
  AddKernelCalls(kernel, level, 1);
  return level;
}

}  // namespace

namespace internal {

void SortKeysBlockScalar(Key* keys, size_t n) { std::sort(keys, keys + n); }

void PartitionBySplittersScalar(const Key* keys, size_t n,
                                const Key* splitters, size_t num_splitters,
                                uint32_t* bucket) {
  for (size_t i = 0; i < n; ++i) {
    bucket[i] = static_cast<uint32_t>(
        std::upper_bound(splitters, splitters + num_splitters, keys[i]) -
        splitters);
  }
}

}  // namespace internal

void SortKeysBlock(Key* keys, size_t n) {
  if (ResolveAndCount(Kernel::kSortKeys) == DispatchLevel::kAvx2) {
    internal::SortKeysBlockAvx2(keys, n);
  } else {
    internal::SortKeysBlockScalar(keys, n);
  }
}

void PartitionBySplitters(const Key* keys, size_t n, const Key* splitters,
                          size_t num_splitters, uint32_t* bucket) {
  if (num_splitters <= kMaxVectorSplitters &&
      ResolveAndCount(Kernel::kPartition) == DispatchLevel::kAvx2) {
    internal::PartitionBySplittersAvx2(keys, n, splitters, num_splitters,
                                       bucket);
  } else {
    internal::PartitionBySplittersScalar(keys, n, splitters, num_splitters,
                                         bucket);
  }
}

}  // namespace simd
}  // namespace twrs
