// sortbench: the repository's end-to-end sort benchmark. One process
// generates a workload's input from a seed, sorts it repeatedly through the
// library's public entry points on the default posix Env, checks every
// output, and prints one JSON result line. See README.md beside this file.
//
//   sortbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the references,
// the top-K probe, the in-memory replay and alternating untraced/traced
// sorts, and reports the per-layer metrics. Exit 0 only when every sort
// was correct.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_env.h"
#include "core/record.h"
#include "core/run_generator.h"
#include "core/run_sink.h"
#include "exec/executor.h"
#include "io/env.h"
#include "io/record_io.h"
#include "merge/external_sorter.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "shard/sharded_sorter.h"
#include "simd/dispatch.h"
#include "trace.h"
#include "util/checksum.h"
#include "workload/generators.h"

namespace sortbench {
namespace {

using twrs::Key;
using twrs::Status;

constexpr uint64_t kMi = uint64_t{1} << 20;

/// One benchmark input and the sort configuration it runs. README.md says
/// why each exists and which layer metric should move which end-to-end one.
struct Workload {
  const char* name;
  twrs::Dataset dataset;
  uint64_t records;
  size_t memory_records;
  size_t shards;  ///< > 1: ShardedSorter::SortFile, else ExternalSorter
};

const Workload kWorkloads[] = {
    {"random-1m", twrs::Dataset::kRandom, 8 * kMi, kMi, 1},
    {"alternating-4k", twrs::Dataset::kAlternating, 8 * kMi, 4096, 1},
    {"random-1m-sharded", twrs::Dataset::kRandom, 8 * kMi, kMi, 4},
};

// Limit of the top-K probe a traced run makes for the select layer: the
// smallest 8192 keys, ascending, which the dual-heap plan serves.
constexpr uint64_t kTopK = 8192;

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
// Sorts per untraced run, at least; more while the next one is expected to
// end within --seconds. sort_s is their median.
constexpr size_t kMinSorts = 3;
// Raw copies per traced run; ref.io_copy_s is their median.
constexpr int kCopies = 3;

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Seconds(int64_t start_ns, int64_t end_ns) {
  return (end_ns - start_ns) * 1e-9;
}

struct Usage {
  double cpu_s = 0;
  double vol_ctx = 0;
  double invol_ctx = 0;
};

Usage ProcessUsage() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 +
            ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
  u.vol_ctx = static_cast<double>(ru.ru_nvcsw);
  u.invol_ctx = static_cast<double>(ru.ru_nivcsw);
  return u;
}

/// What the output must be, computed from the input file at set-up.
struct Reference {
  twrs::KeyChecksum checksum;   ///< of every input key
  std::vector<Key> smallest;    ///< the kTopK smallest, ascending
};

/// Writes the workload's input and scans it back for its reference.
Status SetUp(twrs::Env* env, const Workload& w, uint64_t seed,
             const std::string& input, Reference* ref) {
  twrs::WorkloadOptions options;
  options.num_records = w.records;
  options.seed = seed;
  TWRS_RETURN_IF_ERROR(
      twrs::WriteWorkloadToFile(env, w.dataset, options, input));
  twrs::RecordReader reader(env, input, 1 << 20);
  TWRS_RETURN_IF_ERROR(reader.status());
  Reference out;
  std::priority_queue<Key> kept;  // max-heap of the smallest seen so far
  std::vector<Key> batch(1 << 16);
  for (;;) {
    size_t got = 0;
    TWRS_RETURN_IF_ERROR(reader.NextBatch(batch.data(), batch.size(), &got));
    if (got == 0) break;
    for (size_t i = 0; i < got; ++i) {
      out.checksum.Add(batch[i]);
      if (kept.size() < kTopK) {
        kept.push(batch[i]);
      } else if (batch[i] < kept.top()) {
        kept.pop();
        kept.push(batch[i]);
      }
    }
  }
  if (out.checksum.count() != w.records) {
    return Status::Corruption("input holds " +
                              std::to_string(out.checksum.count()) +
                              " records, expected " +
                              std::to_string(w.records));
  }
  out.smallest.resize(kept.size());
  for (size_t i = kept.size(); i > 0; --i) {
    out.smallest[i - 1] = kept.top();
    kept.pop();
  }
  *ref = std::move(out);
  return Status::OK();
}

/// Production defaults at the measured commit, configured the way
/// `twrs_sort` configures them, plus the workload's sizes.
twrs::ExternalSortOptions SortOptions(const Workload& w,
                                      const std::string& temp_dir) {
  twrs::ExternalSortOptions options;
  options.memory_records = w.memory_records;
  options.twrs = twrs::TwoWayOptions::Recommended(w.memory_records);
  options.fan_in = 10;
  options.temp_dir = temp_dir;
  // Sharded: the shared executor's pool features (async run flushing,
  // parallel leaf merges) are on, as `twrs_sort --shards N --threads 1`.
  if (w.shards > 1) options.parallel.worker_threads = 1;
  return options;
}

struct Paths {
  std::string input;
  std::string output;
  std::string temp_dir;
};

/// One sort call and what it reported.
struct SortRun {
  Status status;
  double seconds = 0;
  Usage usage;  ///< process usage during the call
  twrs::ExternalSortResult serial;
  twrs::ShardedSortResult sharded;
  IoTotals io;
  uint64_t sort_id = 0;  ///< trace id, 0 untraced
};

/// Sorts the input through ShardedSorter::SortFile when `shards` > 1,
/// through ExternalSorter::Sort otherwise.
SortRun RunSort(size_t shards, const twrs::ExternalSortOptions& options,
                uint64_t seed, const Paths& paths, BenchEnv* env,
                Tracer* tracer) {
  SortRun run;
  env->Reset();
  env->set_tracer(tracer);
  const Usage before = ProcessUsage();
  if (tracer != nullptr) run.sort_id = tracer->BeginSort("sort");
  const int64_t start = NowNs();
  Status source_status;
  if (shards > 1) {
    twrs::ShardedSortOptions sharded;
    sharded.shards = shards;
    sharded.sample_seed = seed;
    sharded.sort = options;
    twrs::ShardedSorter sorter(env, sharded);
    run.status = sorter.SortFile(paths.input, paths.output, &run.sharded);
  } else {
    twrs::ExternalSorter sorter(env, options);
    twrs::FileRecordSource source(env, paths.input);
    run.status = sorter.Sort(&source, paths.output, &run.serial);
    source_status = source.status();
  }
  run.seconds = Seconds(start, NowNs());
  if (tracer != nullptr) tracer->EndSort();
  const Usage after = ProcessUsage();
  env->set_tracer(nullptr);
  run.usage.cpu_s = after.cpu_s - before.cpu_s;
  run.usage.vol_ctx = after.vol_ctx - before.vol_ctx;
  run.usage.invol_ctx = after.invol_ctx - before.invol_ctx;
  run.io = env->Totals();
  // Sort can return OK on a truncated input; the source knows better.
  if (run.status.ok()) run.status = source_status;
  return run;
}

/// Checks one sort's output, scratch and byte totals; "" when all hold.
std::string Verify(size_t shards, uint64_t limit, uint64_t records,
                   const Reference& ref, twrs::Env* base, const Paths& paths,
                   const SortRun& run) {
  if (!run.status.ok()) return "sort failed: " + run.status.ToString();

  twrs::RecordReader reader(base, paths.output, 1 << 20);
  if (!reader.status().ok()) return "output: " + reader.status().ToString();
  twrs::KeyChecksum checksum;
  std::vector<Key> batch(1 << 16);
  uint64_t n = 0;
  Key previous = 0;
  for (;;) {
    size_t got = 0;
    Status s = reader.NextBatch(batch.data(), batch.size(), &got);
    if (!s.ok()) return "output: " + s.ToString();
    if (got == 0) break;
    for (size_t i = 0; i < got; ++i, ++n) {
      if (n > 0 && batch[i] < previous) {
        return "output is not sorted at record " + std::to_string(n);
      }
      if (limit > 0 && (n >= ref.smallest.size() ||
                        batch[i] != ref.smallest[n])) {
        return "top-K output differs from the smallest keys at record " +
               std::to_string(n);
      }
      previous = batch[i];
      checksum.Add(batch[i]);
    }
  }
  if (limit > 0) {
    if (n != ref.smallest.size()) {
      return "top-K output holds " + std::to_string(n) + " records, expected " +
             std::to_string(ref.smallest.size());
    }
  } else if (!(checksum == ref.checksum)) {
    return "output is not a permutation of the input (" + std::to_string(n) +
           " records, expected " + std::to_string(ref.checksum.count()) + ")";
  }

  // A sort never leaks temp files, on success or failure.
  std::vector<std::string> left;
  Status s = base->ListDir(paths.temp_dir, &left);
  if (!s.ok()) return "list temp dir: " + s.ToString();
  if (!left.empty()) return "temp dir not empty: " + left.front();

  // The decorator's byte totals must agree with what the sorter counted.
  // ExternalSortResult excludes the source's input reads; the sharded
  // sorter reads the input through its own counting Env, so its totals
  // include them.
  const uint64_t input_bytes = records * twrs::kRecordBytes;
  uint64_t engine_read = run.io.all_read_bytes();
  uint64_t engine_written = run.io.all_write_bytes();
  uint64_t reported_read = run.sharded.bytes_read;
  uint64_t reported_written = run.sharded.bytes_written;
  if (shards <= 1) {
    engine_read -= run.io.read_bytes[kInput];
    reported_read = run.serial.bytes_read;
    reported_written = run.serial.bytes_written;
  }
  // The source must have read the whole input; the sharded sorter reads
  // it twice (sampling, then partitioning).
  const uint64_t input_read = run.io.read_bytes[kInput];
  if (shards > 1 ? input_read < input_bytes : input_read != input_bytes) {
    return "input reads " + std::to_string(input_read) + " bytes of " +
           std::to_string(input_bytes);
  }
  if (engine_read != reported_read || engine_written != reported_written) {
    return "byte totals disagree: env read " + std::to_string(engine_read) +
           " written " + std::to_string(engine_written) + ", sorter read " +
           std::to_string(reported_read) + " written " +
           std::to_string(reported_written);
  }
  return "";
}

/// Sort attempts and failures of one run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Check(const std::string& error) {
    ++attempted;
    if (!error.empty()) {
      ++failed;
      std::fprintf(stderr, "sortbench: FAILED: %s\n", error.c_str());
    }
  }
};

/// Metrics of one run, printed in the order they were added.
class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json_.empty() ? "" : ", ", name.c_str(), value, unit);
    json_ += buf;
  }

  std::string Json() const { return "{" + json_ + "}"; }

 private:
  std::string json_;
};

/// Sum of one histogram's recordings in a registry, in seconds.
double HistogramSeconds(const twrs::MetricsRegistry& registry,
                        const char* name) {
  const twrs::MetricsSnapshot snap = registry.Snapshot();
  const twrs::HistogramSummary* h = snap.FindHistogram(name);
  return h == nullptr ? 0 : h->mean_seconds * static_cast<double>(h->count);
}

/// Raw read of the input plus a synced write of a copy, through `env`
/// with the sort's block size: the bandwidth floor of any sort of it.
double CopySeconds(twrs::Env* env, const std::string& from,
                   const std::string& to, size_t block_bytes, Status* status) {
  const int64_t start = NowNs();
  std::unique_ptr<twrs::SequentialFile> in;
  std::unique_ptr<twrs::WritableFile> out;
  *status = env->NewSequentialFile(from, &in);
  if (status->ok()) *status = env->NewWritableFile(to, &out);
  std::vector<char> block(block_bytes);
  while (status->ok()) {
    size_t got = 0;
    *status = in->Read(block.data(), block.size(), &got);
    if (!status->ok() || got == 0) break;
    *status = out->Append(block.data(), got);
  }
  if (status->ok()) *status = out->Sync();
  if (status->ok()) *status = out->Close();
  const double seconds = Seconds(start, NowNs());
  TWRS_IGNORE_STATUS(env->RemoveFile(to));  // best-effort scratch cleanup
  return seconds;
}

/// Per-shard results of a sharded sort, or the one serial result.
std::vector<const twrs::ExternalSortResult*> SortParts(const Workload& w,
                                                       const SortRun& run) {
  std::vector<const twrs::ExternalSortResult*> parts;
  if (w.shards > 1) {
    for (const auto& r : run.sharded.shard_results) parts.push_back(&r);
  } else {
    parts.push_back(&run.serial);
  }
  return parts;
}

/// Runs the sort generated, summed over shards.
uint64_t RunsGenerated(const Workload& w, const SortRun& run) {
  uint64_t runs = 0;
  for (const auto* r : SortParts(w, run)) runs += r->run_gen.num_runs();
  return runs;
}

/// Per-layer metrics of one traced sort.
std::map<std::string, double> LayerMetrics(const Workload& w,
                                           const SortRun& run,
                                           const SortBreakdown& bd,
                                           const twrs::MetricsRegistry& reg,
                                           size_t workers) {
  auto call_s = [&](const char* name) {
    const auto it = bd.call_s.find(name);
    return it == bd.call_s.end() ? 0.0 : it->second;
  };
  std::map<std::string, double> m;
  m["io.input.read_s"] = call_s(kHandleSpan[kInput][kRead]);
  m["io.input.read_ops"] = static_cast<double>(run.io.read_ops[kInput]);
  m["io.scratch.write_s"] = call_s(kHandleSpan[kScratch][kWrite]);
  m["io.scratch.write_ops"] = static_cast<double>(run.io.write_ops[kScratch]);
  m["io.scratch.read_s"] = call_s(kHandleSpan[kScratch][kRead]);
  m["io.scratch.read_ops"] = static_cast<double>(run.io.read_ops[kScratch]);
  m["io.output.write_s"] = call_s(kHandleSpan[kOutput][kWrite]);
  m["io.output.sync_s"] = call_s(kHandleSpan[kOutput][kSync]);
  m["io.file_ops"] = static_cast<double>(run.io.file_ops);
  double file_ops_s = 0;
  for (const auto& [name, seconds] : bd.call_s) {
    if (name.rfind("io.file.", 0) == 0) file_ops_s += seconds;
  }
  m["io.file_ops_s"] = file_ops_s;

  twrs::RunGenStats gen;
  double rungen_s = 0, merge_s = 0, steps = 0;
  std::vector<double> part_seconds;
  for (const twrs::ExternalSortResult* r : SortParts(w, run)) {
    gen.run_lengths.insert(gen.run_lengths.end(),
                           r->run_gen.run_lengths.begin(),
                           r->run_gen.run_lengths.end());
    gen.total_records += r->run_gen.total_records;
    gen.diverted_next_run += r->run_gen.diverted_next_run;
    gen.migrated_across += r->run_gen.migrated_across;
    gen.victim_records += r->run_gen.victim_records;
    gen.victim_flushes += r->run_gen.victim_flushes;
    rungen_s += r->run_gen_seconds;
    merge_s += r->merge_seconds;
    steps += static_cast<double>(r->merge.merge_steps);
    part_seconds.push_back(r->total_seconds);
  }
  m["core.rungen_s"] = rungen_s;
  m["core.rungen_self_s"] = bd.rungen_self_s;
  m["core.avg_run_rel"] = gen.AverageRunLengthRelative(w.memory_records);
  m["core.diverted_next_run"] = static_cast<double>(gen.diverted_next_run);
  m["core.migrated_across"] = static_cast<double>(gen.migrated_across);
  m["core.victim_records"] = static_cast<double>(gen.victim_records);
  m["core.victim_flushes"] = static_cast<double>(gen.victim_flushes);
  m["core.run_sink_flush_s"] = HistogramSeconds(reg, "run_sink.flush_seconds");

  m["merge.plan_s"] = HistogramSeconds(reg, "sort.merge_planning_seconds");
  m["merge.final_s"] = merge_s;
  m["merge.self_s"] = bd.merge_self_s;
  m["merge.steps"] = steps;
  m["merge.sink_flush_s"] = HistogramSeconds(reg, "merge_sink.flush_seconds");

  double records_skew = 1, time_skew = 1;
  if (w.shards > 1 && !run.sharded.shard_records.empty()) {
    const auto& recs = run.sharded.shard_records;
    double sum = 0, max = 0;
    for (uint64_t r : recs) {
      sum += static_cast<double>(r);
      max = std::max(max, static_cast<double>(r));
    }
    records_skew = max / (sum / static_cast<double>(recs.size()));
    sum = 0;
    max = 0;
    for (double t : part_seconds) {
      sum += t;
      max = std::max(max, t);
    }
    time_skew = max / (sum / static_cast<double>(part_seconds.size()));
  }
  m["shard.split_s"] = run.sharded.split_seconds;
  m["shard.sort_s"] = run.sharded.sort_seconds;
  m["shard.records_skew"] = records_skew;
  m["shard.time_skew"] = time_skew;

  m["exec.cpu_util"] =
      run.usage.cpu_s / (run.seconds * static_cast<double>(workers));
  m["proc.cpu_s"] = run.usage.cpu_s;
  m["proc.vol_ctx_switches"] = run.usage.vol_ctx;
  m["proc.invol_ctx_switches"] = run.usage.invol_ctx;

  // The part of the sort span no phase span covers: the sorter's own
  // set-up and teardown around its phases.
  m["sort.uncovered_s"] =
      w.shards > 1
          ? run.seconds - run.sharded.split_seconds - run.sharded.sort_seconds
          : run.seconds - bd.rungen_window_s - bd.plan_window_s -
                bd.merge_window_s;
  return m;
}

/// Unit of a per-layer metric, from its name.
const char* LayerUnit(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_s")) return "s";
  if (ends("ns_per_record")) return "ns";
  if (name == "core.avg_run_rel") return "x_memory";
  if (ends("_skew") || name == "exec.cpu_util" || name == "trace.overhead") {
    return "ratio";
  }
  return "count";
}

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args->workload = &w;
      }
      if (args->workload == nullptr) return false;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args->seconds <= 0) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->workload != nullptr && !args->work_dir.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: sortbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\nworkloads:");
    for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Workload& w = *args.workload;
  twrs::Env* base = twrs::Env::Default(twrs::IoBackend::kPosix);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  size_t workers = 1;
  if (w.shards > 1) {
    twrs::Executor::ConfigureShared(std::min<size_t>(w.shards, nproc));
    workers = twrs::Executor::Shared().capacity();
  }

  // Run identity: two reports are comparable only when all of it matches.
  std::printf(
      "{\"identity\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"records\": %" PRIu64 ", \"memory_records\": %zu, \"shards\": %zu"
      ", \"workers\": %zu, \"nproc\": %u, \"io_backend\": "
      "\"%s\", \"simd\": \"%s\", \"build_type\": \"%s\", \"git_sha\": "
      "\"%s\", \"seconds\": %g, \"trace\": %d}}\n",
      w.name, args.seed, w.records, w.memory_records, w.shards,
      workers, nproc, twrs::IoBackendName(twrs::IoBackend::kPosix),
      twrs::simd::DispatchLevelName(twrs::simd::ActiveDispatchLevel()),
      SORTBENCH_BUILD_TYPE, TWRS_BUILD_GIT_SHA, args.seconds,
      args.trace ? 1 : 0);
  std::fflush(stdout);

  const std::string dir =
      args.work_dir + "/" + twrs::UniqueScratchDirName(w.name);
  Paths paths{dir + "/input", dir + "/output", dir + "/tmp"};
  Status s = base->CreateDirIfMissing(paths.temp_dir);
  if (!s.ok()) {
    std::fprintf(stderr, "sortbench: %s\n", s.ToString().c_str());
    return 1;
  }
  // Removes the run's directory on every exit path below.
  struct Cleanup {
    twrs::Env* env;
    std::string dir;
    ~Cleanup() { twrs::RemoveTreeBestEffort(env, dir); }
  } cleanup{base, dir};

  Reference ref;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups && s.ok(); ++i) {
    const int64_t start = NowNs();
    s = SetUp(base, w, args.seed, paths.input, &ref);
    setup_s.push_back(Seconds(start, NowNs()));
  }
  if (!s.ok()) {
    std::fprintf(stderr, "sortbench: set-up: %s\n", s.ToString().c_str());
    return 1;
  }

  BenchEnv env(base, paths.input, paths.output);
  const twrs::ExternalSortOptions options = SortOptions(w, paths.temp_dir);
  Tally tally;
  auto sort_once = [&](const twrs::ExternalSortOptions& o, size_t shards,
                       Tracer* tracer) {
    SortRun run = RunSort(shards, o, args.seed, paths, &env, tracer);
    tally.Check(Verify(shards, o.limit, w.records, ref, base, paths, run));
    TWRS_IGNORE_STATUS(base->RemoveFile(paths.output));  // next sort's turn
    return run;
  };
  const double input_bytes =
      static_cast<double>(w.records * twrs::kRecordBytes);
  Metrics metrics;
  const int64_t start = NowNs();
  auto elapsed = [&] { return Seconds(start, NowNs()); };

  if (!args.trace) {
    std::vector<double> sort_s, read_amp, write_amp, runs;
    while (sort_s.size() < kMinSorts ||
           elapsed() + Median(sort_s) <= args.seconds) {
      const SortRun run = sort_once(options, w.shards, nullptr);
      sort_s.push_back(run.seconds);
      std::fprintf(stderr, "sortbench: sort %zu: %.4f s\n", sort_s.size(),
                   run.seconds);
      read_amp.push_back(run.io.all_read_bytes() / input_bytes);
      write_amp.push_back(run.io.all_write_bytes() / input_bytes);
      runs.push_back(static_cast<double>(RunsGenerated(w, run)));
    }
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    const double median = Median(sort_s);
    std::fprintf(stderr, "sortbench: %s: %zu sorts, median %.3f s\n", w.name,
                 sort_s.size(), median);
    metrics.Add("sort_s", median, "s");
    metrics.Add("sort_mrec_s", static_cast<double>(w.records) / kMi / median,
                "Mrec/s");
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("peak_rss_mib", ru.ru_maxrss / 1024.0, "MiB");
    metrics.Add("read_amp", Median(read_amp), "B/B");
    metrics.Add("write_amp", Median(write_amp), "B/B");
    metrics.Add("runs", Median(runs), "count");
  } else {
    Tracer tracer;
    std::vector<double> copy_s;
    for (int i = 0; i < kCopies && s.ok(); ++i) {
      copy_s.push_back(CopySeconds(base, paths.input, dir + "/copy",
                                   options.block_bytes, &s));
    }
    if (!s.ok()) {
      std::fprintf(stderr, "sortbench: raw copy: %s\n", s.ToString().c_str());
      return 1;
    }

    // LSS through the same entry point.
    twrs::ExternalSortOptions lss = options;
    lss.algorithm = twrs::RunGenAlgorithm::kLoadSortStore;
    const double lss_s = sort_once(lss, w.shards, nullptr).seconds;

    // The select layer: a top-K sort of the same input through the
    // dual-heap plan, which writes no runs and skips the merge. Serial,
    // because the sharded sorter rejects a limit; forced, because the
    // planner picks the pruning merge when K exceeds memory_records.
    twrs::MetricsRegistry select_registry;
    twrs::ExternalSortOptions top_k = options;
    top_k.limit = kTopK;
    top_k.topk_strategy = twrs::TopKStrategy::kDualHeap;
    top_k.parallel = twrs::ParallelOptions();
    top_k.metrics = &select_registry;
    sort_once(top_k, 1, nullptr);
    const double selection_s =
        HistogramSeconds(select_registry, "select.selection_seconds");

    // Run generation alone: the same keys replayed from memory into a
    // counting sink, no file I/O.
    double rungen_ns = 0;
    {
      std::vector<Key> keys;
      s = twrs::ReadAllRecords(base, paths.input, &keys);
      twrs::VectorSource source(std::move(keys));
      twrs::CountingRunSink sink;
      twrs::RunGenStats stats;
      const int64_t t0 = NowNs();
      if (s.ok()) {
        s = twrs::MakeRunGenerator(options.algorithm, options.memory_records,
                                   options.twrs)
                ->Generate(&source, &sink, &stats);
      }
      rungen_ns = (NowNs() - t0) / static_cast<double>(w.records);
      if (s.ok() && stats.total_records != w.records) {
        s = Status::Corruption("replay lost records");
      }
      if (!s.ok()) {
        std::fprintf(stderr, "sortbench: replay: %s\n", s.ToString().c_str());
        return 1;
      }
    }

    // Untraced and traced sorts alternate, so that trace.overhead compares
    // neighbours; the per-layer numbers are medians over the traced ones.
    std::vector<double> plain_s, traced_s;
    std::map<std::string, std::vector<double>> layers;
    while (traced_s.empty() ||
           elapsed() + Median(plain_s) + Median(traced_s) <= args.seconds) {
      plain_s.push_back(sort_once(options, w.shards, nullptr).seconds);
      twrs::MetricsRegistry registry;
      twrs::ExternalSortOptions traced = options;
      traced.metrics = &registry;
      const SortRun run = sort_once(traced, w.shards, &tracer);
      traced_s.push_back(run.seconds);
      const SortBreakdown bd = AnalyzeSort(&tracer, run.sort_id);
      for (const auto& [name, value] :
           LayerMetrics(w, run, bd, registry, workers)) {
        layers[name].push_back(value);
      }
    }
    layers["core.rungen_ns_per_record"] = {rungen_ns};
    layers["select.selection_s"] = {selection_s};
    layers["select.ns_per_record"] = {selection_s * 1e9 / w.records};
    layers["ref.io_copy_s"] = copy_s;
    layers["ref.lss_sort_s"] = {lss_s};
    layers["trace.overhead"] = {Median(traced_s) / Median(plain_s)};
    for (const auto& [name, values] : layers) {
      metrics.Add(name, Median(values), LayerUnit(name));
    }

    const std::string trace_dir = args.work_dir + "/traces";
    const std::string trace_path = trace_dir + "/" + w.name + "-seed" +
                                   std::to_string(args.seed) + ".json";
    Status ts = base->CreateDirIfMissing(trace_dir);
    if (ts.ok()) ts = tracer.WriteJson(trace_path);
    std::fprintf(stderr, "sortbench: trace %s: %s\n", trace_path.c_str(),
                 ts.ToString().c_str());
  }

  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": %s}\n",
      tally.failed == 0 ? "true" : "false", tally.attempted, tally.failed,
      metrics.Json().c_str());
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sortbench

int main(int argc, char** argv) { return sortbench::Main(argc, argv); }
