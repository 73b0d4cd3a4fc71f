#include "select/dual_heap_selector.h"

#include <algorithm>
#include <iterator>

namespace twrs {

DualHeapSelector::DualHeapSelector(size_t capacity, SelectOrder order)
    : capacity_(capacity),
      order_(order),
      // Ascending selection keeps the K smallest: the Bottom side's
      // max-heap root is the worst kept record. Descending mirrors it.
      side_(order == SelectOrder::kAscending ? HeapSide::kBottom
                                             : HeapSide::kTop),
      heap_(capacity) {}

void DualHeapSelector::Add(Key key) {
  ++consumed_;
  if (capacity_ == 0) return;
  // Until the selector holds K records, every key is kept.
  if (!heap_.Full() && heap_.Push(side_, key)) return;
  // Strict comparison: an incoming key equal to the bound cannot improve
  // the selection (records are bare keys), so ties never churn the heap.
  const bool beats_bound = order_ == SelectOrder::kAscending
                               ? key < heap_.Top(side_)
                               : key > heap_.Top(side_);
  if (beats_bound) heap_.ReplaceTop(side_, key);
}

std::vector<Key> DualHeapSelector::Take() {
  std::vector<Key> keys;
  keys.reserve(heap_.size());
  // Bottom (max-heap) pops descending; Top (min-heap) pops ascending.
  while (!heap_.Empty(side_)) keys.push_back(heap_.Pop(side_));
  if (order_ == SelectOrder::kAscending) {
    std::reverse(keys.begin(), keys.end());
  }
  consumed_ = 0;
  return keys;
}

Status SelectTopK(RecordSource* source, size_t k, SelectOrder order,
                  std::vector<Key>* out, uint64_t* consumed) {
  DualHeapSelector selector(k, order);
  Key batch[1024];  // 8 KiB next to the K-record heap
  for (;;) {
    size_t n = 0;
    TWRS_RETURN_IF_ERROR(source->NextBatch(batch, std::size(batch), &n));
    if (n == 0) break;
    for (size_t i = 0; i < n; ++i) selector.Add(batch[i]);
  }
  if (consumed != nullptr) *consumed = selector.consumed();
  *out = selector.Take();
  return Status::OK();
}

}  // namespace twrs
