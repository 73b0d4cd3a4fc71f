#ifndef TWRS_HEAP_DOUBLE_HEAP_H_
#define TWRS_HEAP_DOUBLE_HEAP_H_

#include <cassert>
#include <cstddef>

#include "core/record.h"
#include "util/page_allocator.h"

namespace twrs {

/// Which of the two 2WRS heaps an operation addresses.
enum class HeapSide {
  kBottom,  ///< max-heap; emits the decreasing stream 4
  kTop,     ///< min-heap; emits the increasing stream 1
};

/// Returns "Bottom"/"Top" for logging and test diagnostics.
const char* HeapSideName(HeapSide side);

/// The two heaps of 2WRS sharing one memory budget (§4.1, Figs 4.3–4.5).
///
/// The BottomHeap is a max-heap on keys and the TopHeap a min-heap. Either
/// side can grow at the expense of the other: the two sides together hold
/// at most `capacity` records, however they are split.
///
/// Layout. §4.1 stores both heaps in a single array of run-tagged records,
/// with records of the next run ranked below every current-run record
/// (§3.3), so each sift step compares and moves 16-byte (key, run) pairs.
/// Here the run tag is implicit instead. Each side owns an array of
/// `capacity` bare keys. The current run's keys form a binary heap growing
/// from the front; keys for the next run sit unordered in a pool growing
/// from the back. The heap sifts 8-byte keys and never touches the pool.
/// Two arrays of `capacity` keys take the same bytes as the paper's one
/// array of `capacity` tagged records, and the shared `capacity` bound
/// keeps the records held unchanged.
///
/// Next-run keys are never popped before StartNextRun(), which turns both
/// pools into the new current-run heaps with one O(n) heapify each. The
/// tagged array of §4.1 ranks every next-run record after the current run
/// too, so each side pops the same key sequence under either layout.
class DoubleHeap {
 public:
  /// Creates a double heap with room for `capacity` records in total.
  explicit DoubleHeap(size_t capacity);

  /// Total records the two sides can hold together.
  size_t capacity() const { return capacity_; }

  /// Records currently stored across both sides, either run.
  size_t size() const {
    return SideSize(HeapSide::kBottom) + SideSize(HeapSide::kTop);
  }

  /// Records stored on `side`: current-run heap plus next-run pool.
  size_t SideSize(HeapSide side) const {
    const Side& s = sides_[Index(side)];
    return s.heap_size + s.pool_size;
  }

  bool Full() const { return size() == capacity_; }
  bool Empty(HeapSide side) const { return SideSize(side) == 0; }

  /// True when `side` holds a current-run record, i.e. can emit for the
  /// current run.
  bool HasCurrent(HeapSide side) const {
    return sides_[Index(side)].heap_size > 0;
  }

  /// Adds a current-run key to the given heap. Returns false (and stores
  /// nothing) when the two sides together already hold `capacity` records.
  [[nodiscard]] bool Push(HeapSide side, Key key);

  /// Parks a key for the next run on the given side, unordered until
  /// StartNextRun(). Returns false (and stores nothing) when full.
  [[nodiscard]] bool PushNextRun(HeapSide side, Key key);

  /// Root of the given current-run heap: the max for Bottom, the min for
  /// Top. Requires HasCurrent(side).
  Key Top(HeapSide side) const {
    assert(HasCurrent(side));
    return sides_[Index(side)].keys[0];
  }

  /// Removes and returns the root of the given current-run heap.
  Key Pop(HeapSide side);

  /// Replaces the root of the given current-run heap with `key` and
  /// restores the heap property, returning the evicted root. O(log n) with
  /// a single sift-down — the cap-aware push used by bounded top-K
  /// selection: once a selector's heap holds K records, every better
  /// candidate evicts the current boundary element (the root) without
  /// changing the heap size. Requires HasCurrent(side).
  Key ReplaceTop(HeapSide side, Key key);

  /// Removes an arbitrary leaf (the last slot) of the given current-run
  /// heap in O(1). Used by the Balancing heuristic to migrate records
  /// between heaps. Requires HasCurrent(side).
  Key PopLastLeaf(HeapSide side);

  /// Begins the next run: each side's next-run pool becomes its current-run
  /// heap. Requires that neither side has a current-run record left.
  void StartNextRun();

  /// Appends every current-run key (both sides, unspecified order) to
  /// `*out`, a std::vector or PageVector of keys, growing it once. Used by
  /// 2WRS to snapshot the heap contents when choosing the victim buffer's
  /// initial valid range. O(n).
  template <typename Vector>
  void AppendCurrentRunKeys(Vector* out) const {
    out->reserve(out->size() + sides_[0].heap_size + sides_[1].heap_size);
    for (const Side& s : sides_) {
      out->insert(out->end(), s.keys.begin(), s.keys.begin() + s.heap_size);
    }
  }

  /// Verifies the heap property on both sides and the shared capacity
  /// bound; O(n). Test helper.
  bool IsValid() const;

 private:
  // Keys of one side: the current-run heap occupies [0, heap_size), the
  // next-run pool [keys.size() - pool_size, keys.size()).
  struct Side {
    PageVector<Key> keys;
    size_t heap_size = 0;
    size_t pool_size = 0;
  };

  static size_t Index(HeapSide side) {
    return side == HeapSide::kBottom ? 0 : 1;
  }

  size_t capacity_;
  Side sides_[2];
};

}  // namespace twrs

#endif  // TWRS_HEAP_DOUBLE_HEAP_H_
