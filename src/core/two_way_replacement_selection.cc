#include "core/two_way_replacement_selection.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/input_buffer.h"
#include "core/victim_buffer.h"
#include "heap/double_heap.h"
#include "simd/kernels.h"
#include "util/page_allocator.h"

namespace twrs {

namespace {

constexpr Key kKeyMin = std::numeric_limits<Key>::min();
constexpr Key kKeyMax = std::numeric_limits<Key>::max();

// Outcome of one output step. Only kConsumed frees memory for a new input
// record; the other outcomes keep the record in memory.
enum class StepResult {
  kConsumed,  // a record left the heaps (to a stream or the victim buffer)
  kStaged,    // the record was parked in the bootstrapping victim buffer
  kDiverted,  // the record was re-inserted into a heap
};

// All mutable state of one Generate() execution.
class Engine {
 public:
  Engine(const TwoWayOptions& options, RecordSource* source, RunSink* sink,
         RunGenStats* stats)
      : options_(options),
        sink_(sink),
        stats_(stats),
        heap_(options.HeapRecords()),
        input_(source, options.InputBufferRecords(),
               options.input_heuristic == InputHeuristic::kMedian),
        victim_(options.VictimBufferRecords()),
        heuristics_(options.input_heuristic, options.output_heuristic,
                    options.seed) {}

  Status Run() {
    // Fill phase (doubleHeap.fill in Algorithm 2): both heaps are eligible
    // for every record, so the input heuristic places all of them.
    Key key;
    bool eof = false;
    while (heap_.size() < heap_.capacity()) {
      TWRS_RETURN_IF_ERROR(input_.Next(&key, &eof));
      if (eof) break;
      heuristics_.OnRecordSeen(key);
      const HeapSide side = heuristics_.ChooseInsertSide(key, &input_, heap_);
      TWRS_RETURN_IF_ERROR(Stored(heap_.Push(side, key)));
    }
    if (heap_.size() == 0) return sink_.Finish();

    TWRS_RETURN_IF_ERROR(sink_.BeginRun());
    heuristics_.OnRunStart(&heap_);
    while (heap_.size() > 0) {
      if (!heap_.HasCurrent(HeapSide::kBottom) &&
          !heap_.HasCurrent(HeapSide::kTop)) {
        // Every record in memory belongs to a later run: close this one.
        TWRS_RETURN_IF_ERROR(StartNextRun());
        continue;
      }
      StepResult result = StepResult::kDiverted;
      TWRS_RETURN_IF_ERROR(OutputOne(&result));
      if (!swept_this_run_ && DivisionEstablished()) {
        // The run's output division just formed: relocate every record the
        // input heuristic placed on the wrong side of it while the bounds
        // are still at the division (see SeparationSweep).
        TWRS_RETURN_IF_ERROR(SeparationSweep());
        swept_this_run_ = true;
      }
      if (result == StepResult::kConsumed) {
        // One record left the heaps; read replacements (Algorithm 2 keeps
        // reading while records fit the victim buffer).
        TWRS_RETURN_IF_ERROR(ReadAndInsert());
      }
    }
    TWRS_RETURN_IF_ERROR(victim_.FlushFinal(&sink_));
    TWRS_RETURN_IF_ERROR(sink_.EndRun());
    return sink_.Finish();
  }

  void ExportStats() {
    if (stats_ == nullptr) return;
    stats_->diverted_next_run = diverted_;
    stats_->migrated_across = migrated_;
    stats_->victim_records = victim_records_;
    stats_->victim_flushes = victim_.flush_count();
  }

 private:
  Status StartNextRun() {
    TWRS_RETURN_IF_ERROR(victim_.FlushFinal(&sink_));
    TWRS_RETURN_IF_ERROR(sink_.EndRun());
    TWRS_RETURN_IF_ERROR(sink_.BeginRun());
    heap_.StartNextRun();
    // The new run re-establishes its own output division.
    s4_bound_ = kKeyMax;
    s1_bound_ = kKeyMin;
    s4_emitted_ = false;
    s1_emitted_ = false;
    swept_this_run_ = false;
    victim_.ResetForNewRun();
    heuristics_.OnRunStart(&heap_);
    return Status::OK();
  }

  // True once this run's output division exists (set by the bootstrap split
  // or by the first emission).
  bool DivisionEstablished() const {
    return s4_bound_ != kKeyMax || s1_bound_ != kKeyMin;
  }

  // Checks the result of storing a record in the heaps. The engine only
  // stores a record after one left memory, so a refusal means a broken
  // invariant: fail the sort rather than lose the record.
  static Status Stored(bool stored) {
    return stored ? Status::OK()
                  : Status::Internal("2WRS heaps full: a record would be lost");
  }

  // Relocates a record that its own side's stream cannot emit: into the
  // victim buffer when it fits the valid range (the record leaves the
  // heaps: kConsumed), across to the other heap when that side's stream
  // still accepts it, or to the next run (both kDiverted). The next-run
  // branch takes a stray strictly between the two streams' bounds and
  // outside the victim range. The victim range usually covers that gap, so
  // the branch is rare: a sweep of the six workload datasets over every
  // heuristic, buffer setup and memory of 64 to 4096 never reached it,
  // while duplicate-heavy input with a tiny memory does (see
  // TwoWayRsTest.DuplicateHeavyInputReachesNextRunDivert).
  Status RouteStray(Key key, HeapSide from, StepResult* result) {
    *result = StepResult::kConsumed;
    if (victim_.RangeContains(key)) {
      if (victim_.Full()) TWRS_RETURN_IF_ERROR(victim_.FlushActive(&sink_));
      if (victim_.RangeContains(key)) {
        victim_.Add(key);
        ++victim_records_;
        return Status::OK();
      }
    }
    *result = StepResult::kDiverted;
    if (from == HeapSide::kBottom && key >= s1_bound_) {
      ++migrated_;
      return Stored(heap_.Push(HeapSide::kTop, key));
    }
    if (from == HeapSide::kTop && key <= s4_bound_) {
      ++migrated_;
      return Stored(heap_.Push(HeapSide::kBottom, key));
    }
    ++diverted_;
    return Stored(heap_.PushNextRun(
        heuristics_.ChooseInsertSide(key, &input_, heap_), key));
  }

  // One-time cleanup when a run's division forms: the input heuristic may
  // have placed current-run records on the wrong side of the division
  // (guaranteed for the Random/Alternate heuristics, occasional for the
  // sampling ones). Such strays sit at the front of their heap's pop order,
  // so they can all be relocated before any emission moves the stream
  // bounds — after the sweep both heaps are perfectly range-separated and
  // the run proceeds without stranding records. The emission bounds do not
  // move during the sweep (nothing is emitted), which is what makes every
  // relocation succeed. A stray the victim buffer absorbs has left the
  // heaps, so the sweep then reads one replacement per absorbed stray, as
  // the output loop does for every consumed record.
  Status SeparationSweep() {
    uint64_t absorbed = 0;
    StepResult result = StepResult::kDiverted;
    for (bool progressed = true; progressed;) {
      progressed = false;
      for (const HeapSide side : {HeapSide::kBottom, HeapSide::kTop}) {
        while (heap_.HasCurrent(side) &&
               (side == HeapSide::kBottom ? heap_.Top(side) > s4_bound_
                                          : heap_.Top(side) < s1_bound_)) {
          TWRS_RETURN_IF_ERROR(RouteStray(heap_.Pop(side), side, &result));
          absorbed += result == StepResult::kConsumed;
          progressed = true;
        }
      }
    }
    for (; absorbed > 0; --absorbed) TWRS_RETURN_IF_ERROR(ReadAndInsert());
    return Status::OK();
  }

  // Pops one record and routes it: victim buffer (bootstrap or range fit),
  // its own stream, the opposite heap, or the next run.
  Status OutputOne(StepResult* result) {
    const bool can_bottom = heap_.HasCurrent(HeapSide::kBottom);
    const bool can_top = heap_.HasCurrent(HeapSide::kTop);
    const HeapSide side =
        can_bottom && can_top
            ? heuristics_.ChooseOutputSide(heap_)
            : (can_bottom ? HeapSide::kBottom : HeapSide::kTop);
    const Key key = heap_.Pop(side);

    // Bootstrap (§4.3): the first records popped in a run are parked in the
    // victim buffer; when it fills, its largest gap becomes the valid range.
    // The sampled records then return to the heaps split at the gap, and the
    // stream bounds become the gap ends — so the dead zone between the two
    // heap streams is exactly the range the victim buffer covers, no matter
    // how imperfectly the input heuristic separated the heaps (the emitted
    // runs match the thesis' §4.5 example).
    if (victim_.bootstrapping()) {
      victim_.Add(key);
      if (victim_.Full()) {
        // Snapshot the current-run keys so gap selection can avoid ranges
        // that would swallow the heap contents (victim_buffer.h).
        PageVector<Key> snapshot;
        heap_.AppendCurrentRunKeys(&snapshot);
        simd::SortKeysBlock(snapshot.data(), snapshot.size());
        const VictimBuffer::RangePopulation population =
            [&snapshot](Key lo, Key hi) -> uint64_t {
          const auto begin =
              std::upper_bound(snapshot.begin(), snapshot.end(), lo);
          const auto end =
              std::lower_bound(snapshot.begin(), snapshot.end(), hi);
          return begin < end ? static_cast<uint64_t>(end - begin) : 0;
        };
        std::vector<Key> lows;
        std::vector<Key> highs;
        TWRS_RETURN_IF_ERROR(
            victim_.BootstrapSplit(&lows, &highs, population));
        for (Key k : lows) {
          TWRS_RETURN_IF_ERROR(Stored(heap_.Push(HeapSide::kBottom, k)));
        }
        for (Key k : highs) {
          TWRS_RETURN_IF_ERROR(Stored(heap_.Push(HeapSide::kTop, k)));
        }
        s4_bound_ = std::min(s4_bound_, victim_.range_lo());
        s1_bound_ = std::max(s1_bound_, victim_.range_hi());
      }
      *result = StepResult::kStaged;
      return Status::OK();
    }

    // A popped record inside the valid range belongs in the victim buffer.
    if (victim_.RangeContains(key)) {
      if (victim_.Full()) TWRS_RETURN_IF_ERROR(victim_.FlushActive(&sink_));
      if (victim_.RangeContains(key)) {
        victim_.Add(key);
        ++victim_records_;
        heuristics_.OnOutput(side, key);
        *result = StepResult::kConsumed;
        return Status::OK();
      }
    }

    if (side == HeapSide::kBottom && key <= s4_bound_) {
      TWRS_RETURN_IF_ERROR(Emit(kStream4, side, key));
      *result = StepResult::kConsumed;
      return Status::OK();
    }
    if (side == HeapSide::kTop && key >= s1_bound_) {
      TWRS_RETURN_IF_ERROR(Emit(kStream1, side, key));
      *result = StepResult::kConsumed;
      return Status::OK();
    }
    // The record's own stream can no longer take it (divert rule).
    return RouteStray(key, side, result);
  }

  Status Emit(RunStream stream, HeapSide side, Key key) {
    TWRS_RETURN_IF_ERROR(sink_.Add(stream, key));
    heuristics_.OnOutput(side, key);
    if (stream == kStream4) {
      s4_bound_ = key;  // stream 4 is non-increasing
      if (!s4_emitted_) {
        s4_emitted_ = true;
        // The first output marks the division between the heaps (§4.2).
        s1_bound_ = std::max(s1_bound_, key);
      }
    } else {
      s1_bound_ = key;  // stream 1 is non-decreasing
      if (!s1_emitted_) {
        s1_emitted_ = true;
        s4_bound_ = std::min(s4_bound_, key);
      }
    }
    return Status::OK();
  }

  // Reads input records: records inside the victim's valid range are
  // absorbed there (reading on), the first record outside it goes to a heap.
  Status ReadAndInsert() {
    Key key;
    bool eof = false;
    TWRS_RETURN_IF_ERROR(input_.Next(&key, &eof));
    if (eof) return Status::OK();
    heuristics_.OnRecordSeen(key);
    while (victim_.range_set() && victim_.RangeContains(key)) {
      if (victim_.Full()) {
        TWRS_RETURN_IF_ERROR(victim_.FlushActive(&sink_));
        if (!victim_.RangeContains(key)) break;  // range narrowed past key
      }
      victim_.Add(key);
      ++victim_records_;
      TWRS_RETURN_IF_ERROR(input_.Next(&key, &eof));
      if (eof) return Status::OK();
      heuristics_.OnRecordSeen(key);
    }
    return InsertRecord(key);
  }

  Status InsertRecord(Key key) {
    const bool can_bottom = key <= s4_bound_;
    const bool can_top = key >= s1_bound_;
    if (can_bottom && can_top) {
      return Stored(
          heap_.Push(heuristics_.ChooseInsertSide(key, &input_, heap_), key));
    }
    if (can_bottom) return Stored(heap_.Push(HeapSide::kBottom, key));
    if (can_top) return Stored(heap_.Push(HeapSide::kTop, key));
    // Unusable in the current run anywhere: next run (§3.3 generalized).
    return Stored(heap_.PushNextRun(
        heuristics_.ChooseInsertSide(key, &input_, heap_), key));
  }

  const TwoWayOptions& options_;
  // Every run-sink call goes through this buffer, in emission order.
  BufferedRunSink sink_;
  RunGenStats* stats_;

  DoubleHeap heap_;
  InputBuffer input_;
  VictimBuffer victim_;
  HeuristicEngine heuristics_;

  // Stream bounds for the current run: stream 4 may accept keys <=
  // s4_bound_, stream 1 keys >= s1_bound_. Together they keep the
  // cross-stream invariant stream4 <= stream3 <= stream2 <= stream1.
  Key s4_bound_ = kKeyMax;
  Key s1_bound_ = kKeyMin;
  bool s4_emitted_ = false;
  bool s1_emitted_ = false;
  bool swept_this_run_ = false;

  uint64_t diverted_ = 0;
  uint64_t migrated_ = 0;
  uint64_t victim_records_ = 0;
};

}  // namespace

size_t TwoWayOptions::TotalBufferRecords() const {
  if (!use_input_buffer && !use_victim_buffer) return 0;
  size_t total = static_cast<size_t>(
      std::llround(buffer_fraction * static_cast<double>(memory_records)));
  const size_t min_needed =
      (use_input_buffer ? 1 : 0) + (use_victim_buffer ? 1 : 0);
  total = std::max(total, min_needed);
  // The heaps need at least two records.
  if (total + 2 > memory_records) {
    total = memory_records > 2 ? memory_records - 2 : 0;
  }
  return total;
}

size_t TwoWayOptions::InputBufferRecords() const {
  if (!use_input_buffer) return 0;
  const size_t total = TotalBufferRecords();
  return use_victim_buffer ? total / 2 : total;
}

size_t TwoWayOptions::VictimBufferRecords() const {
  if (!use_victim_buffer) return 0;
  return TotalBufferRecords() - InputBufferRecords();
}

size_t TwoWayOptions::HeapRecords() const {
  return memory_records - TotalBufferRecords();
}

Status TwoWayOptions::Validate() const {
  if (memory_records < 3) {
    return Status::InvalidArgument("memory_records must be at least 3");
  }
  if (buffer_fraction < 0.0 || buffer_fraction >= 1.0) {
    return Status::InvalidArgument("buffer_fraction must be in [0, 1)");
  }
  if (HeapRecords() < 2) {
    return Status::InvalidArgument("configuration leaves no room for heaps");
  }
  return Status::OK();
}

TwoWayOptions TwoWayOptions::Recommended(size_t memory_records,
                                         uint64_t seed) {
  TwoWayOptions options;
  options.memory_records = memory_records;
  options.buffer_fraction = 0.02;
  options.use_input_buffer = true;
  options.use_victim_buffer = true;
  options.input_heuristic = InputHeuristic::kMean;
  options.output_heuristic = OutputHeuristic::kRandom;
  options.seed = seed;
  return options;
}

TwoWayReplacementSelection::TwoWayReplacementSelection(TwoWayOptions options)
    : options_(options) {}

Status TwoWayReplacementSelection::Generate(RecordSource* source,
                                            RunSink* sink,
                                            RunGenStats* stats) {
  TWRS_RETURN_IF_ERROR(options_.Validate());
  const size_t first_run = sink->runs().size();
  Engine engine(options_, source, sink, stats);
  TWRS_RETURN_IF_ERROR(engine.Run());
  FillStatsFromSink(*sink, first_run, stats);
  engine.ExportStats();
  return Status::OK();
}

}  // namespace twrs
