#include "merge/polyphase.h"

#include <deque>
#include <memory>
#include <numeric>

#include "exec/async_io.h"
#include "merge/kway_merge.h"

namespace twrs {

std::vector<std::vector<uint64_t>> SimulatePolyphase(
    std::vector<uint64_t> tapes) {
  std::vector<std::vector<uint64_t>> trace;
  trace.push_back(tapes);
  auto total = [&] {
    return std::accumulate(tapes.begin(), tapes.end(), uint64_t{0});
  };
  while (total() > 1) {
    // The first empty tape receives the merged runs.
    size_t out = tapes.size();
    for (size_t i = 0; i < tapes.size(); ++i) {
      if (tapes[i] == 0) {
        out = i;
        break;
      }
    }
    if (out == tapes.size()) {
      // Polyphase requires an empty output tape at every step; a
      // distribution without one cannot proceed. Return the trace so far.
      break;
    }
    size_t non_empty = 0;
    uint64_t min_runs = UINT64_MAX;
    for (size_t i = 0; i < tapes.size(); ++i) {
      if (i == out || tapes[i] == 0) continue;
      ++non_empty;
      min_runs = std::min(min_runs, tapes[i]);
    }
    if (non_empty == 1) {
      // Degenerate step: all remaining runs sit on one tape; merge them all
      // at once into the output tape.
      for (size_t i = 0; i < tapes.size(); ++i) {
        if (i != out && tapes[i] > 0) tapes[i] = 0;
      }
      tapes[out] += 1;
    } else {
      // Perform min_runs k-way merges into the output tape; the tape that
      // hits zero becomes the next output (Table 2.1).
      for (size_t i = 0; i < tapes.size(); ++i) {
        if (i == out || tapes[i] == 0) continue;
        tapes[i] -= min_runs;
      }
      tapes[out] += min_runs;
    }
    trace.push_back(tapes);
  }
  return trace;
}

Status PolyphaseMergeRuns(Env* env, std::vector<RunInfo> runs,
                          size_t num_tapes, const MergeOptions& options,
                          const std::string& output_path, MergeStats* stats) {
  if (num_tapes < 3) {
    return Status::InvalidArgument("polyphase needs at least 3 tapes");
  }
  MergeStats local;
  if (runs.empty()) {
    RecordWriter writer(env, output_path, options.io.block_bytes);
    TWRS_RETURN_IF_ERROR(writer.status());
    TWRS_RETURN_IF_ERROR(writer.Finish());
    if (stats != nullptr) *stats = local;
    return Status::OK();
  }

  // Distribute runs round-robin over num_tapes - 1 tapes, one left empty.
  // (Production polyphase pads to a Fibonacci-like distribution with dummy
  // runs; round-robin keeps the schedule valid at the cost of some extra
  // steps, which MergeStats reports.)
  std::vector<std::deque<RunInfo>> tapes(num_tapes);
  for (size_t i = 0; i < runs.size(); ++i) {
    tapes[i % (num_tapes - 1)].push_back(std::move(runs[i]));
  }

  uint64_t total_runs = 0;
  for (const auto& t : tapes) total_runs += t.size();
  uint64_t temp_counter = 0;

  auto merge_batch = [&](std::vector<RunInfo> batch,
                         std::deque<RunInfo>* out_tape) -> Status {
    const bool final_merge = batch.size() == total_runs;
    const std::string path =
        final_merge ? output_path
                    : options.temp_dir + "/" + options.temp_prefix + "_pp" +
                          std::to_string(temp_counter++);
    std::vector<RunCursor> cursors;
    cursors.reserve(batch.size());
    for (const RunInfo& run : batch) {
      cursors.emplace_back(env, run, options.io.block_bytes,
                           options.io.prefetch_blocks);
      TWRS_RETURN_IF_ERROR(cursors.back().Init());
    }
    std::unique_ptr<RecordWriter> writer;
    TWRS_RETURN_IF_ERROR(OpenRecordWriter(
        env, path, MergeOutputRange(), options.io.block_bytes,
        options.io.pool, options.io.flush_histogram,
        /*sync_on_finish=*/false, &writer));
    RunInfo merged;
    TWRS_RETURN_IF_ERROR(
        Merge(&cursors, MergeWindow(), options.io, writer.get(), &merged));
    merged.segments[0].path = path;
    ++local.merge_steps;
    local.records_written += merged.length;
    if (options.remove_inputs) {
      for (const RunInfo& r : batch) {
        TWRS_RETURN_IF_ERROR(RemoveRunFiles(env, r));
      }
    }
    total_runs -= batch.size();
    if (!final_merge) {
      ++local.intermediate_runs;
      ++total_runs;
      out_tape->push_back(std::move(merged));
    }
    return Status::OK();
  };

  while (total_runs > 1) {
    size_t out = num_tapes;
    for (size_t i = 0; i < num_tapes; ++i) {
      if (tapes[i].empty()) {
        out = i;
        break;
      }
    }
    // Round-robin distribution always leaves one tape empty, and every step
    // empties at least one input tape, so `out` is always found.
    size_t non_empty = 0;
    uint64_t min_runs = UINT64_MAX;
    for (size_t i = 0; i < num_tapes; ++i) {
      if (i == out || tapes[i].empty()) continue;
      ++non_empty;
      min_runs = std::min<uint64_t>(min_runs, tapes[i].size());
    }
    if (non_empty == 1) {
      // All remaining runs on one tape: merge them all at once.
      std::vector<RunInfo> batch;
      for (size_t i = 0; i < num_tapes; ++i) {
        while (!tapes[i].empty()) {
          batch.push_back(std::move(tapes[i].front()));
          tapes[i].pop_front();
        }
      }
      TWRS_RETURN_IF_ERROR(merge_batch(std::move(batch), &tapes[out]));
      continue;
    }
    for (uint64_t m = 0; m < min_runs; ++m) {
      std::vector<RunInfo> batch;
      for (size_t i = 0; i < num_tapes; ++i) {
        if (i == out || tapes[i].empty()) continue;
        batch.push_back(std::move(tapes[i].front()));
        tapes[i].pop_front();
      }
      TWRS_RETURN_IF_ERROR(merge_batch(std::move(batch), &tapes[out]));
      if (total_runs <= 1) break;
    }
  }

  if (total_runs == 1) {
    // A single run remains but was not written by a final merge (e.g. the
    // input was a single run): copy it to the output path.
    for (auto& tape : tapes) {
      if (tape.empty()) continue;
      std::vector<RunInfo> batch;
      batch.push_back(std::move(tape.front()));
      tape.pop_front();
      total_runs = 1;  // so merge_batch treats it as final
      TWRS_RETURN_IF_ERROR(merge_batch(std::move(batch), nullptr));
      break;
    }
  }
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

}  // namespace twrs
