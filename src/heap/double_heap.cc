#include "heap/double_heap.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>

namespace twrs {

namespace {

// Calls `f` with the std heap ordering of `side`. The std heap algorithms
// keep the greatest element under the ordering at the root, so std::less
// gives the Bottom side's max-heap and std::greater the Top side's min-heap.
template <typename F>
decltype(auto) WithOrder(HeapSide side, F&& f) {
  return side == HeapSide::kBottom ? f(std::less<Key>())
                                   : f(std::greater<Key>());
}

// Stores `key` at the root of heap[0, n) and sifts it down into place.
template <typename Less>
void SiftDownFromRoot(Key* heap, size_t n, Key key, Less less) {
  size_t hole = 0;
  for (;;) {
    size_t child = 2 * hole + 1;
    if (child >= n) break;
    if (child + 1 < n && less(heap[child], heap[child + 1])) ++child;
    if (!less(key, heap[child])) break;
    heap[hole] = heap[child];
    hole = child;
  }
  heap[hole] = key;
}

}  // namespace

const char* HeapSideName(HeapSide side) {
  return side == HeapSide::kBottom ? "Bottom" : "Top";
}

DoubleHeap::DoubleHeap(size_t capacity) : capacity_(capacity) {
  for (Side& s : sides_) s.keys.resize(capacity);
}

bool DoubleHeap::Push(HeapSide side, Key key) {
  if (Full()) return false;
  Side& s = sides_[Index(side)];
  Key* heap = s.keys.data();
  heap[s.heap_size++] = key;
  WithOrder(side, [&](auto less) {
    std::push_heap(heap, heap + s.heap_size, less);
  });
  return true;
}

bool DoubleHeap::PushNextRun(HeapSide side, Key key) {
  if (Full()) return false;
  Side& s = sides_[Index(side)];
  s.keys[capacity_ - ++s.pool_size] = key;
  return true;
}

Key DoubleHeap::Pop(HeapSide side) {
  assert(HasCurrent(side));
  Side& s = sides_[Index(side)];
  Key* heap = s.keys.data();
  WithOrder(side, [&](auto less) {
    std::pop_heap(heap, heap + s.heap_size, less);
  });
  return heap[--s.heap_size];
}

Key DoubleHeap::ReplaceTop(HeapSide side, Key key) {
  assert(HasCurrent(side));
  Side& s = sides_[Index(side)];
  const Key evicted = s.keys[0];
  WithOrder(side, [&](auto less) {
    SiftDownFromRoot(s.keys.data(), s.heap_size, key, less);
  });
  return evicted;
}

Key DoubleHeap::PopLastLeaf(HeapSide side) {
  assert(HasCurrent(side));
  Side& s = sides_[Index(side)];
  return s.keys[--s.heap_size];
}

void DoubleHeap::StartNextRun() {
  for (HeapSide side : {HeapSide::kBottom, HeapSide::kTop}) {
    Side& s = sides_[Index(side)];
    assert(s.heap_size == 0);
    Key* heap = s.keys.data();
    if (s.pool_size > 0) {
      std::memmove(heap, heap + capacity_ - s.pool_size,
                   s.pool_size * sizeof(Key));
    }
    s.heap_size = s.pool_size;
    s.pool_size = 0;
    WithOrder(side, [&](auto less) {
      std::make_heap(heap, heap + s.heap_size, less);
    });
  }
}

bool DoubleHeap::IsValid() const {
  if (size() > capacity_) return false;
  for (HeapSide side : {HeapSide::kBottom, HeapSide::kTop}) {
    const Side& s = sides_[Index(side)];
    const bool ok = WithOrder(side, [&](auto less) {
      return std::is_heap(s.keys.begin(), s.keys.begin() + s.heap_size, less);
    });
    if (!ok) return false;
  }
  return true;
}

}  // namespace twrs
