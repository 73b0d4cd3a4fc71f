#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

namespace sortbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

uint64_t Tracer::BeginSort(const char* name) {
  twrs::MutexLock lock(&mu_);
  Span root;
  root.name = name;
  root.id = next_id_++;
  root.sort_id = root.id;
  root.thread = ThreadIndex();
  root.start_ns = NowNs();
  open_sort_ = root.id;
  open_index_ = spans_.size();
  spans_.push_back(std::move(root));
  return open_sort_;
}

void Tracer::EndSort() {
  const int64_t now = NowNs();
  twrs::MutexLock lock(&mu_);
  spans_[open_index_].end_ns = now;
  open_sort_ = 0;
}

void Tracer::Record(const char* name, std::string path, int64_t start_ns,
                    int64_t end_ns) {
  const uint32_t thread = ThreadIndex();
  twrs::MutexLock lock(&mu_);
  if (open_sort_ == 0) return;
  Span span;
  span.name = name;
  span.path = std::move(path);
  span.id = next_id_++;
  span.parent = open_sort_;
  span.sort_id = open_sort_;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.thread = thread;
  spans_.push_back(std::move(span));
}

uint64_t Tracer::NewId() {
  twrs::MutexLock lock(&mu_);
  return next_id_++;
}

void Tracer::Add(Span span) {
  twrs::MutexLock lock(&mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span*> Tracer::SpansOf(uint64_t sort_id) {
  twrs::MutexLock lock(&mu_);
  std::vector<Span*> out;
  for (Span& span : spans_) {
    if (span.sort_id == sort_id) out.push_back(&span);
  }
  return out;
}

twrs::Status Tracer::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return twrs::Status::IOError("cannot write " + path);
  twrs::MutexLock lock(&mu_);
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"sort\":%llu",
                 s.name, s.thread, (s.start_ns - origin) * 1e-3,
                 (s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.sort_id));
    if (!s.path.empty()) {
      std::fputs(",\"path\":\"", f);
      for (char c : s.path) {
        if (c == '"' || c == '\\') std::fputc('\\', f);
        std::fputc(c, f);
      }
      std::fputc('"', f);
    }
    std::fputs(i + 1 < spans_.size() ? "}},\n" : "}}\n", f);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0 ? twrs::Status::OK()
                             : twrs::Status::IOError("cannot write " + path);
}

namespace {

bool IsFileCall(const Span& s) { return std::strncmp(s.name, "io.", 3) == 0; }

bool IsReadOpen(const Span& s) {
  return std::strcmp(s.name, "io.file.open_read") == 0;
}

// Seconds of file calls on `thread` inside [start, end], re-parenting each
// one under `parent`. Calls on one thread never overlap: every handle call
// returns before the next begins.
double FileCallsInside(const std::vector<Span*>& spans, uint32_t thread,
                       int64_t start, int64_t end, uint64_t parent) {
  double seconds = 0;
  for (Span* s : spans) {
    if (s->thread != thread || !IsFileCall(*s)) continue;
    if (s->start_ns < start || s->end_ns > end) continue;
    seconds += s->seconds();
    s->parent = parent;
  }
  return seconds;
}

// Appends a phase span to `phases` (added to the tracer only once the
// sort's span pointers are no longer in use) and returns its id.
uint64_t AddPhase(Tracer* tracer, std::vector<Span>* phases,
                  const char* name, const Span& root, uint32_t thread,
                  int64_t start, int64_t end) {
  Span phase;
  phase.name = name;
  phase.id = tracer->NewId();
  phase.parent = root.id;
  phase.sort_id = root.sort_id;
  phase.thread = thread;
  phase.start_ns = start;
  phase.end_ns = end;
  phases->push_back(phase);
  return phase.id;
}

}  // namespace

SortBreakdown AnalyzeSort(Tracer* tracer, uint64_t sort_id) {
  SortBreakdown out;
  const std::vector<Span*> spans = tracer->SpansOf(sort_id);
  const Span root = *spans.front();
  std::vector<Span> phases;

  for (const Span* s : spans) {
    if (IsFileCall(*s)) out.call_s[s->name] += s->seconds();
  }

  // Scratch directories this sort created, and which of them hold another.
  std::map<std::string, const Span*> created;
  for (const Span* s : spans) {
    if (std::strcmp(s->name, "io.file.mkdir") == 0) created[s->path] = s;
  }
  for (const auto& [dir, mkdir] : created) {
    bool leaf = true;
    for (const auto& other : created) {
      if (other.first.size() > dir.size() + 1 &&
          other.first.compare(0, dir.size() + 1, dir + "/") == 0) {
        leaf = false;
      }
    }
    if (!leaf) continue;
    const uint32_t thread = mkdir->thread;
    const std::string prefix = dir + "/";
    const Span* first_read = nullptr;
    const Span* removed = nullptr;
    for (const Span* s : spans) {
      if (s->thread != thread || s->start_ns < mkdir->end_ns) continue;
      if (first_read == nullptr && IsReadOpen(*s) &&
          s->path.compare(0, prefix.size(), prefix) == 0) {
        first_read = s;
      }
      if (std::strcmp(s->name, "io.file.rmdir") == 0 && s->path == dir) {
        removed = s;
      }
    }
    if (first_read == nullptr || removed == nullptr) continue;
    // Run generation ends with its last call on the thread before the
    // merge's first run read; what lies between is merge planning.
    int64_t rungen_end = mkdir->end_ns;
    for (const Span* s : spans) {
      if (s->thread == thread && IsFileCall(*s) &&
          s->start_ns >= mkdir->end_ns &&
          s->end_ns <= first_read->start_ns) {
        rungen_end = std::max(rungen_end, s->end_ns);
      }
    }
    const uint64_t rungen = AddPhase(tracer, &phases, "core.rungen", root,
                                     thread, mkdir->end_ns, rungen_end);
    const double rungen_io = FileCallsInside(spans, thread, mkdir->end_ns,
                                             rungen_end, rungen);
    AddPhase(tracer, &phases, "merge.plan", root, thread, rungen_end,
             first_read->start_ns);
    const uint64_t merge =
        AddPhase(tracer, &phases, "merge.final", root, thread,
                 first_read->start_ns, removed->start_ns);
    const double merge_io = FileCallsInside(
        spans, thread, first_read->start_ns, removed->start_ns, merge);
    out.rungen_window_s += (rungen_end - mkdir->end_ns) * 1e-9;
    out.rungen_self_s += (rungen_end - mkdir->end_ns) * 1e-9 - rungen_io;
    out.plan_window_s += (first_read->start_ns - rungen_end) * 1e-9;
    out.merge_window_s += (removed->start_ns - first_read->start_ns) * 1e-9;
    out.merge_self_s +=
        (removed->start_ns - first_read->start_ns) * 1e-9 - merge_io;
  }
  for (Span& phase : phases) tracer->Add(std::move(phase));
  return out;
}

}  // namespace sortbench
