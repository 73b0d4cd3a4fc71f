#ifndef TWRS_UTIL_PAGE_ALLOCATOR_H_
#define TWRS_UTIL_PAGE_ALLOCATOR_H_

#include <cstddef>
#include <vector>

namespace twrs {

/// Blocks of at least this many bytes are mapped from the OS.
inline constexpr size_t kPageAllocBytes = size_t{1} << 20;

/// Returns `bytes` of uninitialized memory: fresh zeroed pages from mmap
/// for blocks of kPageAllocBytes or more, operator new below that. Throws
/// std::bad_alloc on failure.
void* AllocatePages(size_t bytes);

/// Releases a block from AllocatePages(`bytes`); mapped blocks are
/// unmapped, so their pages go back to the OS at once.
void FreePages(void* p, size_t bytes);

/// Allocator for the arrays a sort sizes by its memory budget: the 2WRS
/// heaps, their bootstrap snapshot and the merge-sort scratch. Through
/// malloc these blocks would outlive their arrays: glibc raises its mmap
/// threshold after the first large block is freed, then serves the next
/// ones from the allocating thread's arena and keeps pages it does not
/// trim — so the resident size of a process running sorts on an executor
/// would depend on which threads happened to run them.
template <typename T>
struct PageAllocator {
  using value_type = T;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) {}  // NOLINT: allocator rebind

  T* allocate(size_t n) {
    return static_cast<T*>(AllocatePages(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) { FreePages(p, n * sizeof(T)); }

  template <typename U>
  bool operator==(const PageAllocator<U>&) const {
    return true;
  }
  template <typename U>
  bool operator!=(const PageAllocator<U>&) const {
    return false;
  }
};

/// A std::vector whose large buffers go straight to and from the OS.
template <typename T>
using PageVector = std::vector<T, PageAllocator<T>>;

}  // namespace twrs

#endif  // TWRS_UTIL_PAGE_ALLOCATOR_H_
