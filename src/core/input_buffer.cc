#include "core/input_buffer.h"

#include <cassert>

namespace twrs {

void MedianTracker::Insert(Key key) {
  if (low_.empty() || key <= *low_.rbegin()) {
    low_.insert(key);
  } else {
    high_.insert(key);
  }
  Rebalance();
}

void MedianTracker::Erase(Key key) {
  auto it = low_.find(key);
  if (it != low_.end()) {
    low_.erase(it);
  } else {
    it = high_.find(key);
    assert(it != high_.end());
    high_.erase(it);
  }
  Rebalance();
}

Key MedianTracker::Median() const {
  assert(!empty());
  return *low_.rbegin();
}

void MedianTracker::Rebalance() {
  // Invariant: |low| == |high| or |low| == |high| + 1.
  if (low_.size() > high_.size() + 1) {
    auto it = std::prev(low_.end());
    high_.insert(*it);
    low_.erase(it);
  } else if (high_.size() > low_.size()) {
    auto it = high_.begin();
    low_.insert(*it);
    high_.erase(it);
  }
}

InputBuffer::InputBuffer(RecordSource* source, size_t capacity,
                         bool track_median)
    : source_(source),
      capacity_(capacity),
      track_median_(track_median),
      ring_(capacity) {}

Status InputBuffer::Refill() {
  Key key;
  bool eof = false;
  while (count_ < capacity_) {
    TWRS_RETURN_IF_ERROR(source_.Next(&key, &eof));
    if (eof) break;
    const size_t tail = head_ + count_;
    ring_[tail < capacity_ ? tail : tail - capacity_] = key;
    ++count_;
    if (track_median_) median_.Insert(key);
    sum_ += static_cast<double>(key);
  }
  return Status::OK();
}

Status InputBuffer::Next(Key* key, bool* eof) {
  if (capacity_ == 0) {
    stats_size_ = 0;
    return source_.Next(key, eof);
  }
  TWRS_RETURN_IF_ERROR(Refill());
  *eof = count_ == 0;
  if (*eof) return Status::OK();
  // Snapshot statistics over the full window, head included (§4.5 example).
  stats_size_ = count_;
  stats_mean_ = sum_ / static_cast<double>(count_);
  if (track_median_) stats_median_ = median_.Median();
  *key = ring_[head_];
  head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  --count_;
  if (track_median_) median_.Erase(*key);
  sum_ -= static_cast<double>(*key);
  return Status::OK();
}

}  // namespace twrs
