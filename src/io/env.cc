#include "io/env.h"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <memory>

#include "io/posix_env.h"

namespace twrs {

std::string UniqueScratchDirName(const std::string& prefix) {
  static std::atomic<uint64_t> counter{0};
  return prefix + "_" + std::to_string(static_cast<uint64_t>(::getpid())) +
         "_" + std::to_string(counter.fetch_add(1));
}

Status Env::ListDir(const std::string& path, std::vector<std::string>* names) {
  (void)path;
  names->clear();
  return Status::NotSupported("ListDir");
}

void RemoveTreeBestEffort(Env* env, const std::string& path) {
  std::vector<std::string> names;
  if (env->ListDir(path, &names).ok()) {
    for (const std::string& name : names) {
      const std::string child = path + "/" + name;
      // A child that cannot be unlinked as a file is (or behaves as) a
      // directory; recurse. Statuses are deliberately ignored throughout:
      // this runs on error paths, over entries that may already be gone.
      if (!env->RemoveFile(child).ok()) RemoveTreeBestEffort(env, child);
    }
  }
  TWRS_IGNORE_STATUS(env->RemoveDir(path));
}

Status PreflightTempDir(Env* env, const std::string& temp_dir) {
  const std::string probe =
      temp_dir + "/" + UniqueScratchDirName("preflight");
  Status s = env->CreateDirIfMissing(temp_dir);
  if (s.ok()) {
    std::unique_ptr<WritableFile> file;
    s = env->NewWritableFile(probe, &file);
    if (s.ok()) {
      const uint8_t byte = 0;
      s = file->Append(&byte, 1);
      if (s.ok()) s = file->Close();
      // A probe that cannot be unlinked fails the preflight too: every
      // sort's scratch cleanup needs the very same removal, so a directory
      // that only accepts creations would fill with orphaned run files.
      Status remove_status = env->RemoveFile(probe);
      if (s.ok()) s = remove_status;
    }
  }
  if (!s.ok()) {
    return Status::IOError("temp_dir '" + temp_dir +
                           "' is not writable: " + s.ToString());
  }
  return Status::OK();
}

Env* Env::Default() {
  // Never destroyed: avoids static destruction order issues (see style guide
  // on static storage duration objects).
  static Env* const kDefault = new PosixEnv();
  return kDefault;
}

Env* Env::Default(IoBackend /*backend*/) { return Default(); }

const char* IoBackendName(IoBackend /*backend*/) { return "posix"; }

}  // namespace twrs
