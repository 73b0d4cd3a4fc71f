#include "util/page_allocator.h"

#include <sys/mman.h>

#include <new>

namespace twrs {

void* AllocatePages(size_t bytes) {
  if (bytes < kPageAllocBytes) return ::operator new(bytes);
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void FreePages(void* p, size_t bytes) {
  if (bytes < kPageAllocBytes) {
    ::operator delete(p);
    return;
  }
  munmap(p, bytes);
}

}  // namespace twrs
