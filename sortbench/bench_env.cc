#include "bench_env.h"

#include <utility>

namespace sortbench {

namespace {

// Runs `call`, recording it as a span when `tracer` is set. The clock is
// read only when tracing, so the untraced runs pay one branch per call.
template <typename Call>
auto Timed(Tracer* tracer, const char* name, const std::string& path,
           Call&& call) {
  if (tracer == nullptr) return call();
  const int64_t start = NowNs();
  auto result = call();
  tracer->Record(name, path, start, NowNs());
  return result;
}

class BenchWritableFile : public twrs::WritableFile {
 public:
  BenchWritableFile(BenchEnv* env, std::unique_ptr<twrs::WritableFile> base,
                    std::string path)
      : env_(env),
        tracer_(env->tracer()),
        base_(std::move(base)),
        path_(std::move(path)),
        role_(env->RoleOf(path_)) {}

  twrs::Status Append(const void* data, size_t n) override {
    twrs::Status s = Timed(tracer_, kHandleSpan[role_][kWrite], std::string(),
                           [&] { return base_->Append(data, n); });
    if (s.ok()) env_->Count(role_, /*write=*/true, n);
    return s;
  }

  twrs::Status Sync() override {
    return Timed(tracer_, kHandleSpan[role_][kSync], std::string(),
                 [&] { return base_->Sync(); });
  }

  twrs::Status Close() override {
    env_->CountFileOp();
    return Timed(tracer_, "io.file.close", path_,
                 [&] { return base_->Close(); });
  }

 private:
  BenchEnv* env_;
  Tracer* tracer_;
  std::unique_ptr<twrs::WritableFile> base_;
  const std::string path_;
  const Role role_;
};

class BenchSequentialFile : public twrs::SequentialFile {
 public:
  BenchSequentialFile(BenchEnv* env,
                      std::unique_ptr<twrs::SequentialFile> base,
                      const std::string& path)
      : env_(env),
        tracer_(env->tracer()),
        base_(std::move(base)),
        role_(env->RoleOf(path)) {}

  twrs::Status Read(void* out, size_t n, size_t* bytes_read) override {
    twrs::Status s = Timed(tracer_, kHandleSpan[role_][kRead], std::string(),
                           [&] { return base_->Read(out, n, bytes_read); });
    if (s.ok()) env_->Count(role_, /*write=*/false, *bytes_read);
    return s;
  }

  twrs::Status Skip(uint64_t n) override {
    twrs::Status s = Timed(tracer_, kHandleSpan[role_][kRead], std::string(),
                           [&] { return base_->Skip(n); });
    if (s.ok()) env_->Count(role_, /*write=*/false, 0);  // a call, no bytes
    return s;
  }

 private:
  BenchEnv* env_;
  Tracer* tracer_;
  std::unique_ptr<twrs::SequentialFile> base_;
  const Role role_;
};

class BenchRandomRWFile : public twrs::RandomRWFile {
 public:
  BenchRandomRWFile(BenchEnv* env, std::unique_ptr<twrs::RandomRWFile> base,
                    std::string path)
      : env_(env),
        tracer_(env->tracer()),
        base_(std::move(base)),
        path_(std::move(path)),
        role_(env->RoleOf(path_)) {}

  twrs::Status WriteAt(uint64_t offset, const void* data, size_t n) override {
    twrs::Status s = Timed(tracer_, kHandleSpan[role_][kWrite], std::string(),
                           [&] { return base_->WriteAt(offset, data, n); });
    if (s.ok()) env_->Count(role_, /*write=*/true, n);
    return s;
  }

  twrs::Status ReadAt(uint64_t offset, void* out, size_t n) override {
    twrs::Status s = Timed(tracer_, kHandleSpan[role_][kRead], std::string(),
                           [&] { return base_->ReadAt(offset, out, n); });
    if (s.ok()) env_->Count(role_, /*write=*/false, n);
    return s;
  }

  twrs::Status Sync() override {
    return Timed(tracer_, kHandleSpan[role_][kSync], std::string(),
                 [&] { return base_->Sync(); });
  }

  twrs::Status Close() override {
    env_->CountFileOp();
    return Timed(tracer_, "io.file.close", path_,
                 [&] { return base_->Close(); });
  }

 private:
  BenchEnv* env_;
  Tracer* tracer_;
  std::unique_ptr<twrs::RandomRWFile> base_;
  const std::string path_;
  const Role role_;
};

// Opens a handle through `open` and wraps it in `Wrapper` on success.
template <typename Wrapper, typename Handle, typename Open>
twrs::Status OpenWrapped(BenchEnv* env, const char* span,
                         const std::string& path, std::unique_ptr<Handle>* out,
                         Open&& open) {
  env->CountFileOp();
  std::unique_ptr<Handle> base;
  twrs::Status s =
      Timed(env->tracer(), span, path, [&] { return open(&base); });
  if (s.ok()) *out = std::make_unique<Wrapper>(env, std::move(base), path);
  return s;
}

}  // namespace

uint64_t IoTotals::all_read_bytes() const {
  return read_bytes[kInput] + read_bytes[kScratch] + read_bytes[kOutput];
}

uint64_t IoTotals::all_write_bytes() const {
  return write_bytes[kInput] + write_bytes[kScratch] + write_bytes[kOutput];
}

BenchEnv::BenchEnv(twrs::Env* base, std::string input_path,
                   std::string output_path)
    : base_(base),
      input_path_(std::move(input_path)),
      output_path_(std::move(output_path)) {}

Role BenchEnv::RoleOf(const std::string& path) const {
  if (path == input_path_) return kInput;
  if (path == output_path_) return kOutput;
  return kScratch;
}

void BenchEnv::Count(Role role, bool write, uint64_t bytes) {
  (write ? write_bytes_ : read_bytes_)[role].fetch_add(
      bytes, std::memory_order_relaxed);
  (write ? write_ops_ : read_ops_)[role].fetch_add(1,
                                                   std::memory_order_relaxed);
}

IoTotals BenchEnv::Totals() const {
  IoTotals t;
  for (int r = 0; r < kNumRoles; ++r) {
    t.read_bytes[r] = read_bytes_[r].load(std::memory_order_relaxed);
    t.write_bytes[r] = write_bytes_[r].load(std::memory_order_relaxed);
    t.read_ops[r] = read_ops_[r].load(std::memory_order_relaxed);
    t.write_ops[r] = write_ops_[r].load(std::memory_order_relaxed);
  }
  t.file_ops = file_ops_.load(std::memory_order_relaxed);
  return t;
}

void BenchEnv::Reset() {
  for (int r = 0; r < kNumRoles; ++r) {
    read_bytes_[r] = 0;
    write_bytes_[r] = 0;
    read_ops_[r] = 0;
    write_ops_[r] = 0;
  }
  file_ops_ = 0;
}

twrs::Status BenchEnv::NewWritableFile(
    const std::string& path, std::unique_ptr<twrs::WritableFile>* out) {
  return OpenWrapped<BenchWritableFile>(
      this, "io.file.open_write", path, out,
      [&](auto* base) { return base_->NewWritableFile(path, base); });
}

twrs::Status BenchEnv::NewSequentialFile(
    const std::string& path, std::unique_ptr<twrs::SequentialFile>* out) {
  return OpenWrapped<BenchSequentialFile>(
      this, "io.file.open_read", path, out,
      [&](auto* base) { return base_->NewSequentialFile(path, base); });
}

twrs::Status BenchEnv::NewRandomRWFile(
    const std::string& path, std::unique_ptr<twrs::RandomRWFile>* out) {
  return OpenWrapped<BenchRandomRWFile>(
      this, "io.file.open_write", path, out,
      [&](auto* base) { return base_->NewRandomRWFile(path, base); });
}

twrs::Status BenchEnv::ReopenRandomRWFile(
    const std::string& path, std::unique_ptr<twrs::RandomRWFile>* out) {
  return OpenWrapped<BenchRandomRWFile>(
      this, "io.file.open_write", path, out,
      [&](auto* base) { return base_->ReopenRandomRWFile(path, base); });
}

twrs::Status BenchEnv::NewRandomReadFile(
    const std::string& path, std::unique_ptr<twrs::RandomRWFile>* out) {
  return OpenWrapped<BenchRandomRWFile>(
      this, "io.file.open_read", path, out,
      [&](auto* base) { return base_->NewRandomReadFile(path, base); });
}

bool BenchEnv::FileExists(const std::string& path) {
  CountFileOp();
  return Timed(tracer_, "io.file.stat", path,
               [&] { return base_->FileExists(path); });
}

twrs::Status BenchEnv::RemoveFile(const std::string& path) {
  CountFileOp();
  return Timed(tracer_, "io.file.remove", path,
               [&] { return base_->RemoveFile(path); });
}

twrs::Status BenchEnv::GetFileSize(const std::string& path, uint64_t* size) {
  CountFileOp();
  return Timed(tracer_, "io.file.stat", path,
               [&] { return base_->GetFileSize(path, size); });
}

twrs::Status BenchEnv::CreateDirIfMissing(const std::string& path) {
  CountFileOp();
  return Timed(tracer_, "io.file.mkdir", path,
               [&] { return base_->CreateDirIfMissing(path); });
}

twrs::Status BenchEnv::RemoveDir(const std::string& path) {
  CountFileOp();
  return Timed(tracer_, "io.file.rmdir", path,
               [&] { return base_->RemoveDir(path); });
}

twrs::Status BenchEnv::ListDir(const std::string& path,
                               std::vector<std::string>* names) {
  CountFileOp();
  return Timed(tracer_, "io.file.list", path,
               [&] { return base_->ListDir(path, names); });
}

}  // namespace sortbench
