#include "simd/dispatch.h"

#include <atomic>
#include <cstdlib>
#include <string>

#include "obs/metrics.h"
#include "simd/kernels.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace twrs {
namespace simd {

namespace {

bool CpuHasAvx2Bit() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool EnvForcesScalar() {
  const char* env = std::getenv("TWRS_FORCE_SCALAR");
  if (env == nullptr) return false;
  // Any value except empty or "0" forces scalar, so `TWRS_FORCE_SCALAR=1`
  // and `TWRS_FORCE_SCALAR=true` both behave as expected.
  return !(env[0] == '\0' || (env[0] == '0' && env[1] == '\0'));
}

// -1 = no programmatic override (environment default applies),
//  0 = vector dispatch allowed, 1 = scalar forced.
std::atomic<int> g_force_scalar{-1};

std::atomic<uint64_t> g_kernel_calls[kNumKernels][kNumDispatchLevels];

}  // namespace

const char* DispatchLevelName(DispatchLevel level) {
  return level == DispatchLevel::kAvx2 ? "avx2" : "scalar";
}

const char* KernelName(Kernel kernel) {
  switch (kernel) {
    case Kernel::kSortKeys:
      return "sort_block";
    case Kernel::kPartition:
      return "partition";
  }
  return "unknown";
}

bool CpuSupportsAvx2() {
  static const bool supported = CpuHasAvx2Bit() && internal::Avx2Compiled();
  return supported;
}

void ForceScalar(bool force) {
  g_force_scalar.store(force ? 1 : 0, std::memory_order_relaxed);
}

void ClearForceScalarOverride() {
  g_force_scalar.store(-1, std::memory_order_relaxed);
}

DispatchLevel ActiveDispatchLevel() {
  int forced = g_force_scalar.load(std::memory_order_relaxed);
  if (forced < 0) {
    static const bool env_forced = EnvForcesScalar();
    forced = env_forced ? 1 : 0;
  }
  return forced == 0 && CpuSupportsAvx2() ? DispatchLevel::kAvx2
                                          : DispatchLevel::kScalar;
}

uint64_t KernelCalls(Kernel kernel, DispatchLevel level) {
  return g_kernel_calls[static_cast<int>(kernel)][static_cast<int>(level)]
      .load(std::memory_order_relaxed);
}

void AddKernelCalls(Kernel kernel, DispatchLevel level, uint64_t n) {
  g_kernel_calls[static_cast<int>(kernel)][static_cast<int>(level)].fetch_add(
      n, std::memory_order_relaxed);
}

void PublishKernelCounters(MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  // The globals only grow, so each registry counter is raised to the
  // current total by its delta. The mutex keeps two concurrent publishers
  // from both applying the same delta to one registry.
  static Mutex mu;
  MutexLock lock(&mu);
  for (int k = 0; k < kNumKernels; ++k) {
    for (int l = 0; l < kNumDispatchLevels; ++l) {
      const uint64_t total = KernelCalls(static_cast<Kernel>(k),
                                         static_cast<DispatchLevel>(l));
      if (total == 0) continue;  // don't materialize never-used counters
      MonotonicCounter* counter = metrics->Counter(
          std::string("simd.") + KernelName(static_cast<Kernel>(k)) + "." +
          DispatchLevelName(static_cast<DispatchLevel>(l)) + "_calls");
      const uint64_t seen = counter->value();
      if (total > seen) counter->Increment(total - seen);
    }
  }
}

}  // namespace simd
}  // namespace twrs
