#ifndef SORTBENCH_TRACE_H_
#define SORTBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace sortbench {

/// Nanoseconds on the steady clock.
int64_t NowNs();

/// Small dense id of the calling thread (0 for the first thread that asks).
uint32_t ThreadIndex();

/// One timed call across a layer boundary: the benchmark's call into the
/// sorter, or a file call the sorter makes through the benchmark's Env.
/// Phase spans (run generation, merge) are derived after the sort from
/// the file calls that bound them; see AnalyzeSort.
struct Span {
  const char* name = "";  ///< string literal, e.g. "io.scratch.write"
  std::string path;       ///< file or directory of env-level calls
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 for a sort's root span
  uint64_t sort_id = 0;  ///< shared by every span of one sort
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;

  double seconds() const { return (end_ns - start_ns) * 1e-9; }
};

/// In-memory span recorder. Thread-safe: the sharded workload's pool
/// threads record concurrently. Spans stay in memory until WriteJson.
class Tracer {
 public:
  /// Opens the root span of one sort; spans recorded until EndSort belong
  /// to it and take it as their parent.
  uint64_t BeginSort(const char* name);
  void EndSort();

  /// Records a finished call. Outside a BeginSort/EndSort pair the call is
  /// dropped (the benchmark's own set-up and checks are not traced).
  void Record(const char* name, std::string path, int64_t start_ns,
              int64_t end_ns);

  /// Id for a span derived after the fact (a phase), added with Add.
  uint64_t NewId();
  void Add(Span span);

  /// Every span of sort `sort_id`, the root first. Mutable view, so that
  /// analysis can re-parent file calls under the phases it derives; valid
  /// until the next Record/Add/BeginSort.
  std::vector<Span*> SpansOf(uint64_t sort_id);

  /// Writes every span as Chrome trace-event JSON ("X" events, microsecond
  /// timestamps; sort id and parent in args).
  twrs::Status WriteJson(const std::string& path) const;

 private:
  mutable twrs::Mutex mu_;
  std::vector<Span> spans_ TWRS_GUARDED_BY(mu_);
  uint64_t next_id_ TWRS_GUARDED_BY(mu_) = 1;
  uint64_t open_sort_ TWRS_GUARDED_BY(mu_) = 0;
  size_t open_index_ TWRS_GUARDED_BY(mu_) = 0;
};

/// Where one sort's time went, from its spans.
struct SortBreakdown {
  double rungen_window_s = 0;  ///< run-generation spans, summed over shards
  double rungen_self_s = 0;    ///< minus the file calls inside them
  double plan_window_s = 0;    ///< run generation's end to the first run read
  double merge_window_s = 0;   ///< first run read to scratch removal
  double merge_self_s = 0;
  std::map<std::string, double> call_s;  ///< file-call seconds by span name
};

/// Derives the phase spans of sort `sort_id` from its file calls and
/// computes self times. A per-sort scratch directory (one that no other
/// created directory nests in) bounds one ExternalSorter pipeline on the
/// thread that created it: run generation runs from its creation to the
/// last scratch call before the first read-open of a file inside it, the
/// merge from that read-open to the directory's removal. Self time is a
/// phase span minus the file calls on the same thread inside it.
SortBreakdown AnalyzeSort(Tracer* tracer, uint64_t sort_id);

}  // namespace sortbench

#endif  // SORTBENCH_TRACE_H_
