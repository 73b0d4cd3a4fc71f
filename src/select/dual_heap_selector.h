#ifndef TWRS_SELECT_DUAL_HEAP_SELECTOR_H_
#define TWRS_SELECT_DUAL_HEAP_SELECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/record.h"
#include "core/record_source.h"
#include "heap/double_heap.h"
#include "select/topk.h"
#include "util/status.h"

namespace twrs {

/// Bounded streaming top-K selector on the paper's DoubleHeap (PAPERS.md:
/// Sepesi's Dualheap Selection Algorithm; Elmasry et al.'s bounded-
/// workspace selection). Holds at most `capacity` records regardless of
/// stream length — the workspace is the K-record heap, nothing else — so a
/// selector sized to a MemoryGovernor lease never exceeds it.
///
/// kAscending keeps the K smallest keys in the Bottom side (a max-heap):
/// its root is the current K-th-smallest bound, and any smaller candidate
/// evicts it via DoubleHeap::ReplaceTop. kDescending mirrors this on the
/// Top side (a min-heap) to keep the K largest. Either way Take() returns
/// the survivors ascending-sorted, matching the record-file invariant.
class DualHeapSelector {
 public:
  DualHeapSelector(size_t capacity, SelectOrder order);

  /// Offers one record to the selector.
  void Add(Key key);

  /// Records offered so far.
  uint64_t consumed() const { return consumed_; }

  /// Records currently held: min(consumed, capacity).
  size_t size() const { return heap_.size(); }

  size_t capacity() const { return capacity_; }
  SelectOrder order() const { return order_; }

  /// Current selection boundary: the key a candidate must beat to enter a
  /// full selector (the largest kept key when ascending, the smallest when
  /// descending). Requires size() == capacity() > 0.
  Key bound() const { return heap_.Top(side_); }

  /// Drains the selector and returns the selected records in ascending key
  /// order. The selector is empty (but reusable) afterwards.
  std::vector<Key> Take();

 private:
  const size_t capacity_;
  const SelectOrder order_;
  const HeapSide side_;
  DoubleHeap heap_;
  uint64_t consumed_ = 0;
};

/// One-pass driver: streams `source` to exhaustion through a K-capacity
/// selector. `out` receives the selection ascending-sorted; `consumed`
/// (optional) the stream length. A failed read of the source is returned.
Status SelectTopK(RecordSource* source, size_t k, SelectOrder order,
                  std::vector<Key>* out, uint64_t* consumed = nullptr);

}  // namespace twrs

#endif  // TWRS_SELECT_DUAL_HEAP_SELECTOR_H_
