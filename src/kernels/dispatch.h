// Runtime CPU-feature dispatch for the SIMD kernel backend.
//
// The numeric kernels (dense GEMM and its TransA/TransB variants, CSR SpMM,
// the fused Linear+ReLU row that every zoo Linear->ReLU runs through,
// row-softmax, and the elementwise accumulators) exist in
// three tiers: a portable scalar reference, an AVX2 path, and an AVX-512
// path. Every tier preserves the scalar reference's per-output-element
// accumulation order and uses separate multiply and add (never FMA — its
// single rounding would change results), so outputs are bitwise identical
// across tiers, register-block widths, and thread counts; the bitwise
// identity matrix in tests/kernels_test.cc proves it on whatever tiers the
// host supports.
//
// Tier selection, resolved once at first use:
//   1. AHG_KERNEL_TIER=scalar|avx2|avx512
//                                -> that tier, clamped down to the best
//                                   supported tier at or below it.
//   2. otherwise                 -> best tier the CPU (and build) supports.
// SetTier()/ScopedTier override the resolved tier at runtime (tests force
// each tier in turn); overrides clamp to supported tiers the same way.
#ifndef AUTOHENS_KERNELS_DISPATCH_H_
#define AUTOHENS_KERNELS_DISPATCH_H_

namespace ahg::kernels {

enum class Tier { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

// "scalar", "avx2", "avx512".
const char* TierName(Tier tier);

// True when both the build (the tier's TU compiled on this architecture)
// and the running CPU support the tier. kScalar is always supported.
bool TierSupported(Tier tier);

// Highest supported tier.
Tier BestSupportedTier();

// The tier kernels dispatch to right now (env overrides applied at first
// call, SetTier/ScopedTier afterwards).
Tier ActiveTier();

// Sets the active tier, clamped down to the best supported tier <= `tier`.
// Process-global: kernels resolve their tier on the calling thread before
// entering parallel regions, so the switch is race-free for callers that
// serialize their kernel launches (tests do).
void SetTier(Tier tier);

// RAII tier override for tests.
class ScopedTier {
 public:
  explicit ScopedTier(Tier tier);
  ~ScopedTier();

  ScopedTier(const ScopedTier&) = delete;
  ScopedTier& operator=(const ScopedTier&) = delete;

 private:
  Tier saved_;
};

}  // namespace ahg::kernels

#endif  // AUTOHENS_KERNELS_DISPATCH_H_
