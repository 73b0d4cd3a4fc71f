#ifndef TWRS_HEAP_DOUBLE_HEAP_H_
#define TWRS_HEAP_DOUBLE_HEAP_H_

#include <cassert>
#include <cstddef>
#include <vector>

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
/// (§3.3). Here the run tag is implicit instead: each side keeps its
/// next-run keys unordered in a pool, and its current-run keys in an exact
/// priority queue built to stay in cache however large `capacity` is
/// (after Sanders' sequence heap, "Fast Priority Queues for Cached
/// Memory"):
///
///   - an insertion heap: a binary heap of at most kInsertionBound keys
///     (32 KiB), which takes every Push;
///   - a few sorted sequences, each read from a cursor at its front.
///
/// A full insertion heap is sorted into a new sequence, which is merged
/// into the newest existing one while that one's remainder is at most
/// twice its size (binary-counter style), so each key is moved
/// O(log(n / kInsertionBound)) times, always sequentially. Pop() takes the
/// better of the insertion-heap root and the best sequence head, so only
/// the insertion heap and one cache line per sequence are touched.
/// StartNextRun() sorts each pool into the side's single sequence.
///
/// Both sides are min-queues inside: the Bottom side stores ~key, because
/// bitwise NOT reverses the order of two's-complement integers. Keys are
/// bare integers, so any exact priority queue pops the same key sequence;
/// only PopLastLeaf() depends on the layout. Resident memory stays within
/// the 2 × `capacity` keys of two `capacity`-key arrays: at most
/// `capacity` keys are held, and the one transient block (a merge's
/// output, a pool's sort scratch or its regrown copy) is never larger.
class DoubleHeap {
 public:
  /// Largest insertion heap a side keeps before sorting it into a sequence.
  static constexpr size_t kInsertionBound = 4096;

  /// Creates a double heap with room for `capacity` records in total.
  explicit DoubleHeap(size_t capacity);

  /// Total records the two sides can hold together.
  size_t capacity() const { return capacity_; }

  /// Records currently stored across both sides, either run.
  size_t size() const { return size_; }

  /// Records stored on `side`: current run plus next-run pool.
  size_t SideSize(HeapSide side) const {
    const Side& s = sides_[Index(side)];
    return s.current + s.pool.size();
  }

  bool Full() const { return size_ == capacity_; }
  bool Empty(HeapSide side) const { return SideSize(side) == 0; }

  /// True when `side` holds a current-run record, i.e. can emit for the
  /// current run.
  bool HasCurrent(HeapSide side) const {
    return sides_[Index(side)].current > 0;
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
    return Flip(side, sides_[Index(side)].min);
  }

  /// Removes and returns the root of the given current-run heap.
  Key Pop(HeapSide side);

  /// Replaces the root of the given current-run heap with `key`, returning
  /// the evicted root — the cap-aware push used by bounded top-K selection:
  /// once a selector's heap holds K records, every better candidate evicts
  /// the current boundary element (the root) without changing the heap
  /// size. When the insertion heap holds the root this is one in-place
  /// sift-down. Requires HasCurrent(side).
  Key ReplaceTop(HeapSide side, Key key);

  /// Removes some current-run key of the given side in O(1): the last slot
  /// of the insertion heap, or else the tail of the newest sequence. Used
  /// by the Balancing heuristic to migrate records between heaps. Requires
  /// HasCurrent(side).
  Key PopLastLeaf(HeapSide side);

  /// Begins the next run: each side's next-run pool becomes its current
  /// run. Requires that neither side has a current-run record left.
  void StartNextRun();

  /// Appends every current-run key (both sides, unspecified order) to
  /// `*out`, a std::vector or PageVector of keys, growing it once. Used by
  /// 2WRS to snapshot the heap contents when choosing the victim buffer's
  /// initial valid range. O(n).
  template <typename Vector>
  void AppendCurrentRunKeys(Vector* out) const {
    out->reserve(out->size() + sides_[0].current + sides_[1].current);
    for (const HeapSide side : {HeapSide::kBottom, HeapSide::kTop}) {
      const Side& s = sides_[Index(side)];
      const size_t from = out->size();
      out->insert(out->end(), s.ins.begin(), s.ins.end());
      for (const Sequence& seq : s.seqs) {
        out->insert(out->end(), seq.keys.begin() + seq.head, seq.keys.end());
      }
      for (size_t i = from; i < out->size(); ++i) {
        (*out)[i] = Flip(side, (*out)[i]);
      }
    }
  }

  /// Verifies each side's queue (heap property, sorted sequences, counts)
  /// and the shared capacity bound; O(n). Test helper.
  bool IsValid() const;

 private:
  // A sorted run of current-run keys; keys[head, size) are still held.
  struct Sequence {
    PageVector<Key> keys;
    size_t head = 0;

    size_t size() const { return keys.size() - head; }
    Key Front() const { return keys[head]; }
  };

  // One side: its current-run keys as a min-queue (stored flipped for
  // Bottom) plus its next-run pool.
  struct Side {
    PageVector<Key> ins;         // binary min-heap, <= kInsertionBound keys
    std::vector<Sequence> seqs;  // oldest first, none empty
    size_t best = 0;             // index of the smallest sequence head
    size_t current = 0;          // ins.size() + every sequence's size()
    Key min = 0;                 // smallest current-run key, if current > 0
    PageVector<Key> pool;        // next-run keys, unordered

    // True when the insertion-heap root is a minimum.
    bool MinInInsertionHeap() const { return !ins.empty() && ins[0] == min; }
    void Insert(Key key);
    Key PopMin();
    void DropSequenceHead();
    void Spill();
    void FindBest();
    void FindMin();
  };

  static size_t Index(HeapSide side) {
    return side == HeapSide::kBottom ? 0 : 1;
  }

  // Maps a key to and from its stored form: ~key on the Bottom side.
  static Key Flip(HeapSide side, Key key) {
    return side == HeapSide::kBottom ? ~key : key;
  }

  size_t capacity_;
  size_t size_ = 0;  // both sides, both runs
  Side sides_[2];
};

}  // namespace twrs

#endif  // TWRS_HEAP_DOUBLE_HEAP_H_
