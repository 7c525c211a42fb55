// Cached CPU-feature detection and the Montgomery kernel ladder.
//
// The one accelerated bignum kernel, the MULX/ADX inline-asm 256-bit kernel,
// dispatches at runtime through SelectedKernel(), so the binary carries no
// -march requirement and one build runs correctly on any x86-64 (and, via
// the scalar tier, on any architecture at all).
//
// The environment variable EMBELLISH_KERNEL=scalar|adx pins the dispatch so
// benches and CI can measure one tier reproducibly; a request above what the
// CPU supports clamps down the ladder rather than failing, and any other
// value keeps the automatic tier. Benches that sweep tiers inside one process
// use SetKernelOverride.

#ifndef EMBELLISH_COMMON_CPUINFO_H_
#define EMBELLISH_COMMON_CPUINFO_H_

namespace embellish {

/// \brief The ISA extensions the bignum kernels care about.
struct CpuFeatures {
  bool adx = false;   ///< ADCX/ADOX dual carry chains
  bool bmi2 = false;  ///< MULX flag-preserving multiply
};

/// \brief One cached CPUID interrogation per process.
const CpuFeatures& GetCpuFeatures();

/// \brief The kernel ladder. The ADX tier falls back to the scalar kernels
///        for the limb widths it does not cover.
enum class MontKernel : int {
  kScalar = 0,  ///< portable fixed-width / generic CIOS, 64-bit limbs
  kAdx = 1,     ///< + MULX/ADCX/ADOX scalar kernel (k = 4)
};

/// \brief Stable lowercase name ("scalar", "adx").
const char* KernelName(MontKernel kernel);

/// \brief Parses a KernelName; returns false on anything unrecognized.
bool KernelFromName(const char* name, MontKernel* out);

/// \brief Highest tier this CPU can execute.
MontKernel MaxSupportedKernel();

/// \brief Clamps a requested tier to what the CPU supports.
MontKernel ClampToCpu(MontKernel kernel);

/// \brief The active tier: MaxSupportedKernel(), lowered by EMBELLISH_KERNEL
///        if set, or by the latest SetKernelOverride. Hot dispatch sites pay
///        one relaxed atomic load.
MontKernel SelectedKernel();

/// \brief Pins the dispatch programmatically (bench kernel sweeps and
///        tests); the request is clamped to CPU support. Returns the tier
///        that was previously selected so callers can restore it. Dispatch
///        sites re-read the selection per operation, so callers must quiesce
///        in-flight crypto before switching tiers mid-process.
MontKernel SetKernelOverride(MontKernel kernel);

}  // namespace embellish

#endif  // EMBELLISH_COMMON_CPUINFO_H_
