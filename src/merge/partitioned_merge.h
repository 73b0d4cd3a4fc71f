#ifndef TWRS_MERGE_PARTITIONED_MERGE_H_
#define TWRS_MERGE_PARTITIONED_MERGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/record.h"
#include "core/run_sink.h"
#include "io/env.h"
#include "util/status.h"

namespace twrs {

// Key-domain splitting of the partitioned final merge (see MergeRuns):
// splitter candidates are sampled from the runs, and every run's exact
// split positions are located, so each partition owns an exact byte range
// of the output.

/// Computes, for each splitter, how many records of `run` hold keys
/// strictly below it (`below->at(s)` for splitters[s], which must be
/// ascending and distinct). Forward segments are binary-searched with
/// block-granular positioned reads; reverse segments are scanned in one
/// ascending pass that stops early at the largest splitter. These counts
/// are what make the partitioned merge's output offsets exact.
Status PartitionPointsForRun(Env* env, const RunInfo& run,
                             const std::vector<Key>& splitters,
                             size_t block_bytes,
                             std::vector<uint64_t>* below);

/// Samples splitter candidates from `runs`: every run's key bounds plus
/// positioned probes of its forward segments, pooled through a
/// ReservoirSampler. Deterministic for a fixed seed.
Status SampleRunKeys(Env* env, const std::vector<RunInfo>& runs,
                     size_t sample_size, uint64_t seed,
                     std::vector<Key>* sample);

}  // namespace twrs

#endif  // TWRS_MERGE_PARTITIONED_MERGE_H_
