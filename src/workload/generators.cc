#include "workload/generators.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/random.h"

namespace twrs {

namespace {

// Streams `n` records, the i-th of which is `key(i)` (called in order of
// i), optionally plus the paper's per-record +U[1,1000] noise (§5.2).
template <typename KeyFn>
class GeneratedSource : public RecordSource {
 public:
  GeneratedSource(uint64_t n, KeyFn key, bool add_noise, uint64_t noise_seed)
      : n_(n),
        key_(std::move(key)),
        add_noise_(add_noise),
        noise_(noise_seed) {}

  Status NextBatch(Key* out, size_t max, size_t* got) override {
    *got = 0;
    for (; *got < max && i_ < n_; ++i_) {
      Key k = key_(i_);
      if (add_noise_) k += static_cast<Key>(1 + noise_.Uniform(1000));
      out[(*got)++] = k;
    }
    return Status::OK();
  }

 private:
  uint64_t n_;
  KeyFn key_;
  bool add_noise_;
  Random noise_;
  uint64_t i_ = 0;
};

template <typename KeyFn>
std::unique_ptr<RecordSource> Generated(const WorkloadOptions& options,
                                        KeyFn key) {
  // Different seed stream than the random dataset's so random data and its
  // noise are not correlated.
  return std::make_unique<GeneratedSource<KeyFn>>(
      options.num_records, std::move(key), options.add_noise,
      options.seed ^ 0x5851f42d4c957f2dULL);
}

// Triangle wave (Fig 5.1c): `sections` alternating ascending and descending
// ramps, each spanning the full key range.
std::unique_ptr<RecordSource> Alternating(const WorkloadOptions& options) {
  const uint64_t n = options.num_records;
  const Key stride = options.stride;
  const uint64_t section_len = std::max<uint64_t>(
      1, n / std::max<uint64_t>(1, options.sections));
  return Generated(options, [=](uint64_t i) {
    const uint64_t section = i / section_len;
    const uint64_t pos = i % section_len;
    // Scale the in-section position onto the full [0, n) key span.
    const uint64_t denominator = std::max<uint64_t>(1, section_len - 1);
    uint64_t level = pos * (n - 1) / denominator;
    if (section % 2 == 1) level = (n - 1) - level;  // descending section
    return static_cast<Key>(level) * stride;
  });
}

// Interleaves a rising trend and a falling trend that *diverge* from a
// common split point (Fig 5.1e/f and the worked example of §4.5): the
// rising records walk up from the split, the falling ones walk down. With
// `up_every` = 2 the interleave is 1:1 (mixed balanced); with 4 it is 1:3
// (mixed imbalanced).
std::unique_ptr<RecordSource> Mixed(const WorkloadOptions& options,
                                    uint64_t up_every) {
  const Key stride = options.stride;
  // The falling branch owns (up_every-1)/up_every of the records, hence of
  // the key span below the split; the rising branch covers the rest.
  const uint64_t down_records =
      options.num_records - options.num_records / up_every;
  const Key split = static_cast<Key>(down_records) * stride;
  return Generated(options, [=](uint64_t i) {
    // Record i is rising record i / up_every (from 0), or falling record
    // i - i / up_every (from 1).
    const uint64_t up = i / up_every;
    if (i % up_every == 0) return split + static_cast<Key>(up) * stride;
    return split - static_cast<Key>(i - up) * stride;
  });
}

}  // namespace

const char* DatasetName(Dataset dataset) {
  switch (dataset) {
    case Dataset::kSorted:
      return "sorted";
    case Dataset::kReverseSorted:
      return "reverse-sorted";
    case Dataset::kAlternating:
      return "alternating";
    case Dataset::kRandom:
      return "random";
    case Dataset::kMixed:
      return "mixed";
    case Dataset::kMixedImbalanced:
      return "mixed-imbalanced";
  }
  return "?";
}

std::unique_ptr<RecordSource> MakeWorkload(Dataset dataset,
                                           const WorkloadOptions& options) {
  const uint64_t n = options.num_records;
  const Key stride = options.stride;
  switch (dataset) {
    case Dataset::kSorted:
      return Generated(
          options, [=](uint64_t i) { return static_cast<Key>(i) * stride; });
    case Dataset::kReverseSorted:
      return Generated(options, [=](uint64_t i) {
        return static_cast<Key>(n - 1 - i) * stride;
      });
    case Dataset::kAlternating:
      return Alternating(options);
    case Dataset::kRandom: {
      const uint64_t range =
          std::max<uint64_t>(1, n * static_cast<uint64_t>(stride));
      return Generated(options, [range, rng = Random(options.seed)](
                                    uint64_t) mutable {
        return static_cast<Key>(rng.Uniform(range));
      });
    }
    case Dataset::kMixed:
      return Mixed(options, 2);
    case Dataset::kMixedImbalanced:
      return Mixed(options, 4);
  }
  return nullptr;
}

FileRecordSource::FileRecordSource(Env* env, const std::string& path,
                                   size_t block_bytes)
    : reader_(env, path, block_bytes) {}

Status FileRecordSource::NextBatch(Key* out, size_t max, size_t* got) {
  return reader_.NextBatch(out, max, got);
}

Status AppendAllRecords(RecordSource* source, RecordWriter* writer) {
  std::vector<Key> batch(kDefaultBlockBytes / kRecordBytes);
  for (;;) {
    size_t n = 0;
    TWRS_RETURN_IF_ERROR(source->NextBatch(batch.data(), batch.size(), &n));
    if (n == 0) return Status::OK();
    TWRS_RETURN_IF_ERROR(writer->AppendBatch(batch.data(), n));
  }
}

Status WriteWorkloadToFile(Env* env, Dataset dataset,
                           const WorkloadOptions& options,
                           const std::string& path) {
  std::unique_ptr<RecordSource> source = MakeWorkload(dataset, options);
  RecordWriter writer(env, path);
  TWRS_RETURN_IF_ERROR(writer.status());
  TWRS_RETURN_IF_ERROR(AppendAllRecords(source.get(), &writer));
  return writer.Finish();
}

}  // namespace twrs
