#include "kernels/dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "kernels/kernel_ops.h"
#include "util/logging.h"

namespace ahg::kernels {
namespace {

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  // The SIMD TUs also count nonzero lanes with POPCNT.
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("popcnt") != 0;
#else
  return false;
#endif
}

bool CpuHasAvx512() {
#if defined(__x86_64__) || defined(__i386__)
  // The AVX-512 TU uses foundation + VL (256-bit forms) + DQ double ops,
  // and POPCNT.
  return __builtin_cpu_supports("popcnt") != 0 &&
         __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0;
#else
  return false;
#endif
}

Tier ClampToSupported(Tier tier) {
  if (tier == Tier::kAvx512 && TierSupported(Tier::kAvx512)) return tier;
  if (tier >= Tier::kAvx2 && TierSupported(Tier::kAvx2)) return Tier::kAvx2;
  return Tier::kScalar;
}

// The env override is read once; SetTier afterwards still clamps the same
// way.
Tier InitialTier() {
  const char* tier_env = std::getenv("AHG_KERNEL_TIER");
  if (tier_env != nullptr && tier_env[0] != '\0') {
    Tier requested = BestSupportedTier();
    if (std::strcmp(tier_env, "scalar") == 0) {
      requested = Tier::kScalar;
    } else if (std::strcmp(tier_env, "avx2") == 0) {
      requested = Tier::kAvx2;
    } else if (std::strcmp(tier_env, "avx512") == 0) {
      requested = Tier::kAvx512;
    } else {
      AHG_LOG(Warning) << "unknown AHG_KERNEL_TIER '" << tier_env
                       << "' (scalar|avx2|avx512); using "
                       << TierName(BestSupportedTier());
    }
    const Tier clamped = ClampToSupported(requested);
    if (clamped != requested) {
      AHG_LOG(Warning) << "AHG_KERNEL_TIER=" << TierName(requested)
                       << " unsupported on this host; clamped to "
                       << TierName(clamped);
    }
    return clamped;
  }
  return BestSupportedTier();
}

std::atomic<Tier>& ActiveTierState() {
  static std::atomic<Tier> tier{InitialTier()};
  return tier;
}

}  // namespace

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool TierSupported(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return true;
    case Tier::kAvx2:
      return Avx2Ops() != nullptr && CpuHasAvx2();
    case Tier::kAvx512:
      return Avx512Ops() != nullptr && CpuHasAvx512();
  }
  return false;
}

Tier BestSupportedTier() {
  if (TierSupported(Tier::kAvx512)) return Tier::kAvx512;
  if (TierSupported(Tier::kAvx2)) return Tier::kAvx2;
  return Tier::kScalar;
}

Tier ActiveTier() {
  return ActiveTierState().load(std::memory_order_relaxed);
}

void SetTier(Tier tier) {
  ActiveTierState().store(ClampToSupported(tier), std::memory_order_relaxed);
}

ScopedTier::ScopedTier(Tier tier) : saved_(ActiveTier()) { SetTier(tier); }

ScopedTier::~ScopedTier() {
  ActiveTierState().store(saved_, std::memory_order_relaxed);
}

const TierOps& OpsFor(Tier tier) {
  if (tier == Tier::kAvx512 && TierSupported(Tier::kAvx512)) {
    return *Avx512Ops();
  }
  if (tier >= Tier::kAvx2 && TierSupported(Tier::kAvx2)) {
    return *Avx2Ops();
  }
  return ScalarOps();
}

const TierOps& ActiveOps() { return OpsFor(ActiveTier()); }

}  // namespace ahg::kernels
