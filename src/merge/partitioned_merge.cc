#include "merge/partitioned_merge.h"

#include <algorithm>
#include <memory>

#include "io/reverse_run_file.h"
#include "shard/splitters.h"

namespace twrs {

namespace {

/// Lower-bound searches over one sorted forward record file using
/// positioned reads. Two-granularity search keeps the probe count low on
/// seek-bound devices: a record-granular binary search would pay ~log2(n)
/// seeks per splitter, while probing block *starts* first and then reading
/// the one boundary block narrows the same range in ~log2(n/records_per_
/// block) tiny probes plus one block read — and consecutive splitters
/// usually land in the same cached block.
class ForwardSegmentSearcher {
 public:
  ForwardSegmentSearcher(Env* env, const RunSegment& seg, size_t block_bytes)
      : count_(seg.count),
        records_per_block_(std::max<size_t>(1, block_bytes / kRecordBytes)) {
    status_ = env->NewRandomReadFile(seg.path, &file_);
  }

  const Status& status() const { return status_; }

  /// First record index in [lo_hint, count) whose key is >= bound; count_
  /// when every key is smaller. Requires ascending calls (lo_hint from the
  /// previous result) for the block cache to pay off, but is correct for
  /// any hint.
  Status LowerBound(Key bound, uint64_t lo_hint, uint64_t* index) {
    TWRS_RETURN_IF_ERROR(status_);
    // Phase A: binary search over block-start records.
    uint64_t lo_block = lo_hint / records_per_block_;
    uint64_t hi_block = (count_ + records_per_block_ - 1) / records_per_block_;
    while (lo_block < hi_block) {
      const uint64_t mid = lo_block + (hi_block - lo_block) / 2;
      Key key;
      TWRS_RETURN_IF_ERROR(KeyAt(mid * records_per_block_, &key));
      if (key < bound) {
        lo_block = mid + 1;
      } else {
        hi_block = mid;
      }
    }
    // Every key of block lo_block (if it exists) is >= bound; the boundary
    // lies inside the previous block, unless that one starts >= bound too.
    if (lo_block == 0) {
      *index = 0;
      return Status::OK();
    }
    const uint64_t block = lo_block - 1;
    TWRS_RETURN_IF_ERROR(LoadBlock(block));
    const uint64_t base = block * records_per_block_;
    *index = base + static_cast<uint64_t>(
                        std::lower_bound(cache_keys_.begin(),
                                         cache_keys_.end(), bound) -
                        cache_keys_.begin());
    return Status::OK();
  }

 private:
  Status KeyAt(uint64_t index, Key* key) {
    uint8_t buf[kRecordBytes];
    TWRS_RETURN_IF_ERROR(file_->ReadAt(index * kRecordBytes, buf,
                                       kRecordBytes));
    *key = DecodeKey(buf);
    return Status::OK();
  }

  Status LoadBlock(uint64_t block) {
    if (cached_block_ == static_cast<int64_t>(block)) return Status::OK();
    const uint64_t first = block * records_per_block_;
    const uint64_t records =
        std::min<uint64_t>(records_per_block_, count_ - first);
    cache_.resize(records * kRecordBytes);
    TWRS_RETURN_IF_ERROR(file_->ReadAt(first * kRecordBytes, cache_.data(),
                                       cache_.size()));
    // Decode the whole block once; the binary searches then compare native
    // keys instead of re-decoding a record per probe.
    cache_keys_.resize(records);
    DecodeKeys(cache_.data(), records, cache_keys_.data());
    cached_block_ = static_cast<int64_t>(block);
    return Status::OK();
  }

  Status status_;
  std::unique_ptr<RandomRWFile> file_;
  const uint64_t count_;
  const size_t records_per_block_;
  std::vector<uint8_t> cache_;
  std::vector<Key> cache_keys_;
  int64_t cached_block_ = -1;
};

}  // namespace

Status PartitionPointsForRun(Env* env, const RunInfo& run,
                             const std::vector<Key>& splitters,
                             size_t block_bytes,
                             std::vector<uint64_t>* below) {
  below->assign(splitters.size(), 0);
  if (splitters.empty()) return Status::OK();
  for (const RunSegment& seg : run.segments) {
    if (seg.count == 0) continue;
    if (seg.reverse) {
      // One ascending scan counts every splitter at once; once a key
      // reaches the largest splitter, later keys cannot change any count.
      ReverseRunReader reader(env, seg.path, seg.num_files, block_bytes);
      TWRS_RETURN_IF_ERROR(reader.status());
      uint64_t scanned = 0;
      size_t s = 0;
      while (s < splitters.size()) {
        Key key;
        bool eof;
        TWRS_RETURN_IF_ERROR(reader.Next(&key, &eof));
        if (eof) break;
        while (s < splitters.size() && key >= splitters[s]) {
          (*below)[s] += scanned;
          ++s;
        }
        ++scanned;
      }
      // Splitters the scan never reached: every record sits below them.
      for (; s < splitters.size(); ++s) (*below)[s] += seg.count;
    } else {
      ForwardSegmentSearcher searcher(env, seg, block_bytes);
      TWRS_RETURN_IF_ERROR(searcher.status());
      uint64_t lo = 0;
      for (size_t s = 0; s < splitters.size(); ++s) {
        TWRS_RETURN_IF_ERROR(searcher.LowerBound(splitters[s], lo, &lo));
        (*below)[s] += lo;
      }
    }
  }
  return Status::OK();
}

Status SampleRunKeys(Env* env, const std::vector<RunInfo>& runs,
                     size_t sample_size, uint64_t seed,
                     std::vector<Key>* sample) {
  ReservoirSampler sampler(std::max<size_t>(1, sample_size), seed);
  uint64_t forward_total = 0;
  for (const RunInfo& run : runs) {
    for (const RunSegment& seg : run.segments) {
      if (!seg.reverse) forward_total += seg.count;
    }
  }
  for (const RunInfo& run : runs) {
    if (run.length == 0) continue;
    // The exact bounds are free and anchor the sample even for runs whose
    // bulk sits in reverse segments (not probed below).
    sampler.Add(run.min_key);
    sampler.Add(run.max_key);
    for (const RunSegment& seg : run.segments) {
      if (seg.reverse || seg.count == 0) continue;
      uint64_t probes = forward_total > 0
                            ? sample_size * seg.count / forward_total
                            : 0;
      probes = std::min<uint64_t>(std::max<uint64_t>(probes, 1), seg.count);
      std::unique_ptr<RandomRWFile> file;
      TWRS_RETURN_IF_ERROR(env->NewRandomReadFile(seg.path, &file));
      for (uint64_t p = 0; p < probes; ++p) {
        // Stratified midpoints: evenly spaced probes approximate the
        // segment's quantiles better than uniform positions would.
        const uint64_t index = (2 * p + 1) * seg.count / (2 * probes);
        uint8_t buf[kRecordBytes];
        TWRS_RETURN_IF_ERROR(
            file->ReadAt(index * kRecordBytes, buf, kRecordBytes));
        sampler.Add(DecodeKey(buf));
      }
      TWRS_RETURN_IF_ERROR(file->Close());
    }
  }
  *sample = sampler.sample();
  return Status::OK();
}

}  // namespace twrs
