#include "core/batched_replacement_selection.h"

#include <algorithm>
#include <list>
#include <vector>

#include "heap/binary_heap.h"
#include "simd/kernels.h"

namespace twrs {

namespace {

// One sorted batch being consumed ("minirun", §3.7.1).
struct Minirun {
  std::vector<Key> keys;
  size_t cursor = 0;

  bool Exhausted() const { return cursor == keys.size(); }
  Key Head() const { return keys[cursor]; }
};

using MinirunList = std::list<Minirun>;

// Selection entry: the head record of one current minirun.
struct HeadItem {
  Key key;
  uint64_t serial;  // deterministic tie-break
  MinirunList::iterator minirun;
};

struct HeadBefore {
  bool operator()(const HeadItem& a, const HeadItem& b) const {
    if (a.key != b.key) return a.key < b.key;
    return a.serial < b.serial;
  }
};

}  // namespace

BatchedReplacementSelection::BatchedReplacementSelection(
    BatchedReplacementSelectionOptions options)
    : options_(options) {}

Status BatchedReplacementSelection::Generate(RecordSource* source,
                                             RunSink* sink,
                                             RunGenStats* stats) {
  if (options_.memory_records == 0) {
    return Status::InvalidArgument("memory_records must be positive");
  }
  if (options_.batch_records == 0 ||
      options_.batch_records > options_.memory_records) {
    return Status::InvalidArgument(
        "batch_records must be in [1, memory_records]");
  }
  const size_t first_run = sink->runs().size();
  const size_t batch = options_.batch_records;
  BufferedRunSink out(sink);

  MinirunList current;   // miniruns feeding the current run
  MinirunList deferred;  // next-run miniruns (heads below the last output)
  BinaryHeap<HeadItem, HeadBefore> heads;
  size_t in_memory = 0;  // unconsumed records across all miniruns
  uint64_t next_serial = 0;
  bool input_done = false;
  bool have_last_output = false;
  Key last_output = 0;

  auto push_head = [&](MinirunList::iterator it) {
    heads.Push(HeadItem{it->Head(), next_serial++, it});
  };

  // Reads one batch, sorts it, and splits it at the last output: the suffix
  // extends the current run, the prefix is deferred to the next one.
  auto read_batch = [&]() -> Status {
    if (input_done) return Status::OK();
    std::vector<Key> keys(batch);
    size_t n = 0;
    TWRS_RETURN_IF_ERROR(ReadFull(source, keys.data(), batch, &n));
    keys.resize(n);
    if (n < batch) input_done = true;
    if (keys.empty()) return Status::OK();
    simd::SortKeysBlock(keys.data(), keys.size());
    in_memory += keys.size();
    size_t boundary = 0;
    if (have_last_output) {
      boundary = static_cast<size_t>(
          std::lower_bound(keys.begin(), keys.end(), last_output) -
          keys.begin());
    }
    if (boundary > 0) {
      Minirun prefix;
      prefix.keys.assign(keys.begin(), keys.begin() + boundary);
      deferred.push_back(std::move(prefix));
    }
    if (boundary < keys.size()) {
      Minirun suffix;
      suffix.keys.assign(keys.begin() + boundary, keys.end());
      current.push_back(std::move(suffix));
      push_head(std::prev(current.end()));
    }
    return Status::OK();
  };

  // Initial fill: load one memory's worth of batches.
  while (!input_done && in_memory + batch <= options_.memory_records) {
    TWRS_RETURN_IF_ERROR(read_batch());
  }
  if (current.empty() && deferred.empty()) {
    TWRS_RETURN_IF_ERROR(out.Finish());
    FillStatsFromSink(*sink, first_run, stats);
    return Status::OK();
  }

  TWRS_RETURN_IF_ERROR(out.BeginRun());
  for (;;) {
    if (heads.empty()) {
      // Current run complete; promote the deferred miniruns.
      TWRS_RETURN_IF_ERROR(out.EndRun());
      if (deferred.empty()) break;
      TWRS_RETURN_IF_ERROR(out.BeginRun());
      have_last_output = false;
      current = std::move(deferred);
      deferred.clear();
      for (auto it = current.begin(); it != current.end(); ++it) {
        push_head(it);
      }
      continue;
    }
    const HeadItem item = heads.Pop();
    TWRS_RETURN_IF_ERROR(out.Add(kStream1, item.key));
    last_output = item.key;
    have_last_output = true;
    --in_memory;
    Minirun& minirun = *item.minirun;
    ++minirun.cursor;
    if (!minirun.Exhausted()) {
      push_head(item.minirun);
    } else {
      current.erase(item.minirun);
    }
    // Refill whenever a batch's worth of memory has been released.
    if (in_memory + batch <= options_.memory_records) {
      TWRS_RETURN_IF_ERROR(read_batch());
    }
  }
  TWRS_RETURN_IF_ERROR(out.Finish());
  FillStatsFromSink(*sink, first_run, stats);
  return Status::OK();
}

}  // namespace twrs
