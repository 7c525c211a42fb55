#include "common/cpuinfo.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

namespace embellish {

namespace {

CpuFeatures Detect() {
  CpuFeatures f;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  f.adx = __builtin_cpu_supports("adx") != 0;
  f.bmi2 = __builtin_cpu_supports("bmi2") != 0;
#endif
  return f;
}

// Selected tier, encoded as int(MontKernel); -1 until first use.
std::atomic<int> g_selected{-1};

MontKernel InitialSelection() {
  MontKernel kernel = MaxSupportedKernel();
  const char* env = std::getenv("EMBELLISH_KERNEL");
  if (env != nullptr && *env != '\0') {
    MontKernel requested;
    if (KernelFromName(env, &requested)) {
      kernel = ClampToCpu(requested);
    }
    // An unrecognized value keeps the auto selection: benches print the
    // resolved KernelName, so a typo is visible rather than silently scalar.
  }
  return kernel;
}

}  // namespace

const CpuFeatures& GetCpuFeatures() {
  static const CpuFeatures features = Detect();
  return features;
}

const char* KernelName(MontKernel kernel) {
  switch (kernel) {
    case MontKernel::kScalar: return "scalar";
    case MontKernel::kAdx: return "adx";
  }
  return "unknown";
}

bool KernelFromName(const char* name, MontKernel* out) {
  if (name == nullptr || out == nullptr) return false;
  for (MontKernel kernel : {MontKernel::kScalar, MontKernel::kAdx}) {
    if (std::strcmp(name, KernelName(kernel)) == 0) {
      *out = kernel;
      return true;
    }
  }
  return false;
}

MontKernel MaxSupportedKernel() {
  const CpuFeatures& f = GetCpuFeatures();
  return f.adx && f.bmi2 ? MontKernel::kAdx : MontKernel::kScalar;
}

MontKernel ClampToCpu(MontKernel kernel) {
  return std::min(kernel, MaxSupportedKernel());
}

MontKernel SelectedKernel() {
  int cur = g_selected.load(std::memory_order_relaxed);
  if (cur < 0) {
    const int initial = static_cast<int>(InitialSelection());
    // Several threads may race the first read; they all compute the same
    // value, so a plain store is fine either way.
    g_selected.store(initial, std::memory_order_relaxed);
    cur = initial;
  }
  return static_cast<MontKernel>(cur);
}

MontKernel SetKernelOverride(MontKernel kernel) {
  const MontKernel previous = SelectedKernel();
  g_selected.store(static_cast<int>(ClampToCpu(kernel)),
                   std::memory_order_relaxed);
  return previous;
}

}  // namespace embellish
