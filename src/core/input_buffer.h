#ifndef TWRS_CORE_INPUT_BUFFER_H_
#define TWRS_CORE_INPUT_BUFFER_H_

#include <cstddef>
#include <set>
#include <vector>

#include "core/record.h"
#include "core/record_source.h"
#include "util/status.h"

namespace twrs {

/// Maintains the running median of a multiset under insertions and value
/// erasures in O(log n), for the Median input heuristic (§4.2). Two balanced
/// multisets: `low_` holds the smaller half (its max is the lower median).
class MedianTracker {
 public:
  void Insert(Key key);

  /// Removes one occurrence of `key`; must be present.
  void Erase(Key key);

  /// Lower median of the tracked values. Requires non-empty.
  Key Median() const;

  size_t size() const { return low_.size() + high_.size(); }
  bool empty() const { return size() == 0; }

 private:
  void Rebalance();

  std::multiset<Key> low_;   // smaller half, |low_| == |high_| or |high_|+1
  std::multiset<Key> high_;  // larger half
};

/// FIFO read-ahead buffer between the input stream and 2WRS (§4.2).
///
/// A window of upcoming records is kept so the input heuristics can sample
/// the input distribution. Matching the worked example of §4.5, the
/// statistics exposed after Next() are those of the window *including* the
/// record just handed out (the buffer is refilled, the snapshot is taken,
/// then the head is popped).
///
/// The window is a ring of `capacity` keys allocated once, so moving a
/// record through it makes no allocator call. With capacity 0 the buffer is a
/// pass-through and HasStats() is false; heuristics fall back to running
/// statistics over the whole input seen.
class InputBuffer {
 public:
  /// Does not take ownership of `source`. `track_median` enables the
  /// median-order statistics (O(log n) per record); leave it off unless the
  /// Median heuristic is in use — the mean costs O(1) either way.
  InputBuffer(RecordSource* source, size_t capacity,
              bool track_median = true);

  /// Pops the next record (refilling the window first); sets `*eof`
  /// instead at end of input. A failed read of the source is returned.
  Status Next(Key* key, bool* eof);

  /// True when buffered statistics are available (capacity > 0 and at least
  /// one record was in the window at the last Next()).
  bool HasStats() const { return stats_size_ > 0; }

  /// Mean of the window at the last Next() (including the popped record).
  double Mean() const { return stats_mean_; }

  /// Lower median of the same window. Requires median tracking.
  Key Median() const { return stats_median_; }

  bool tracks_median() const { return track_median_; }

  /// Sum and count of the records currently buffered (the unread
  /// lookahead). Combined with the consumer's own running totals this
  /// yields a mean estimate over everything seen so far plus the window.
  double WindowSum() const { return sum_; }
  size_t WindowSize() const { return count_; }

  size_t capacity() const { return capacity_; }
  size_t size() const { return count_; }

 private:
  Status Refill();

  RecordCursor source_;
  size_t capacity_;
  bool track_median_;
  // The window: count_ keys from ring_[head_], wrapping at capacity_.
  std::vector<Key> ring_;
  size_t head_ = 0;
  size_t count_ = 0;
  MedianTracker median_;
  double sum_ = 0.0;

  // Snapshot taken by the most recent Next().
  size_t stats_size_ = 0;
  double stats_mean_ = 0.0;
  Key stats_median_ = 0;
};

}  // namespace twrs

#endif  // TWRS_CORE_INPUT_BUFFER_H_
